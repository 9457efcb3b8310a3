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
// (NewFSStore), process memory (NewMemStore), and a latency/failure-
// injecting object-store fake (NewFakeS3Store); any user type
// satisfying the interface works the same. See DESIGN.md §6.9 for the
// contract implementations must honor.
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

// FakeS3Options configures the simulated object store.
type FakeS3Options struct {
	// Latency is added to every request (the per-request round trip).
	Latency time.Duration
	// ThroughputBps, when positive, adds n/ThroughputBps of transfer
	// time to an n-byte read.
	ThroughputBps int64
	// FailEveryN, when positive, makes every Nth range read fail with
	// a transient error (readers retry with backoff).
	FailEveryN int
}

// NewFakeS3Store wraps inner (nil selects a fresh in-memory store) in
// a simulated object store: per-request latency, bounded throughput,
// and injectable transient range-read failures. It is how the
// remote-scan path — coalescing, readahead, retry — is exercised and
// benchmarked without a real object store (see `jtbench blockstore`).
func NewFakeS3Store(inner BlockStore, o FakeS3Options) BlockStore {
	return blockstore.NewFakeS3(inner, blockstore.FakeS3Config{
		Latency:       o.Latency,
		ThroughputBps: o.ThroughputBps,
		FailEveryN:    o.FailEveryN,
	})
}

// OpenStore opens (or creates) a multi-segment table on a BlockStore —
// OpenDir generalized from a directory path to any store. Catalog,
// orphan collection, flushes, compaction, and scans all go through the store;
// the caller keeps ownership of it (Close leaves the store open, so
// one store can back several tables).
func OpenStore(name string, store BlockStore, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	maybeServeDebug(opts.DebugAddr)
	pool := bufpool.New(opts.CacheBytes)
	fanIn := opts.CompactFanIn
	auto := fanIn >= 0
	if fanIn < 0 {
		fanIn = 0 // explicit Compact still uses the default fan-in
	}
	dt, err := storage.OpenDirStore(name, store, pool, opts.loaderConfig(), fanIn, auto)
	if err != nil {
		return nil, err
	}
	return &Table{name: name, opts: opts, rel: dt, metrics: &tile.Metrics{}}, nil
}
