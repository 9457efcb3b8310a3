package jsontiles

// Storage/compute separation: tables can live on any BlockStore — the
// local filesystem, process memory, or an object store — instead of
// being tied to a directory path. The storage contract (immutability,
// atomic Put, read-after-commit visibility) and the remote-scan read
// path (manifest-only opens, coalesced range reads, bounded readahead)
// are documented in DESIGN.md §6.9.

import (
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/storage"
	"repro/internal/tile"
)

// BlockStore is the segment I/O abstraction every disk-backed table
// speaks: named immutable objects with ranged reads and atomic
// whole-object writes. Implementations ship for the local filesystem
// (NewFSStore), process memory (NewMemStore), and a latency-injecting
// object-store fake (NewFakeS3Store); any user type satisfying the
// interface works the same. See DESIGN.md §6.9 for the contract
// implementations must honor.
type BlockStore = blockstore.Store

// NewFSStore returns a BlockStore over a local directory (created if
// absent). Put writes are atomic: temp file, fsync, rename.
func NewFSStore(dir string) (BlockStore, error) {
	return blockstore.NewFS(dir)
}

// NewMemStore returns an empty in-memory BlockStore. Contents live
// and die with the process; two NewMemStore calls never share data.
func NewMemStore() BlockStore {
	return blockstore.NewMem()
}

// NewFakeS3Store wraps inner (nil selects a fresh in-memory store) in
// a simulated object store that adds latency to every request (the
// per-request round trip). It is how the remote-scan path — coalescing
// and readahead — is exercised without a real object store.
func NewFakeS3Store(inner BlockStore, latency time.Duration) BlockStore {
	return blockstore.NewFakeS3(inner, blockstore.FakeS3Config{Latency: latency})
}

// OpenStore opens (or creates) a multi-segment table on a BlockStore —
// OpenDir generalized from a directory path to any store. Catalog,
// orphan collection, flushes, compaction, and scans all go through the store;
// the caller keeps ownership of it (Close leaves the store open, so
// one store can back several tables).
func OpenStore(name string, store BlockStore, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	pool := bufpool.New(opts.CacheBytes)
	fanIn := opts.CompactFanIn
	auto := fanIn >= 0
	if fanIn < 0 {
		fanIn = 0 // explicit Compact still uses the default fan-in
	}
	dt, err := storage.OpenDirStore(name, store, pool, opts.loaderConfig(nil), fanIn, auto)
	if err != nil {
		return nil, err
	}
	return &Table{name: name, opts: opts, rel: dt, metrics: &tile.Metrics{}}, nil
}
