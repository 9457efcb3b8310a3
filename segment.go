package jsontiles

// Segment persistence: a Table can be written to a single segment
// file and reopened — in another process, later — as a disk-backed
// table whose queries read only the blocks they touch, through a
// capacity-bounded buffer pool. See DESIGN.md §6 for the file layout
// and the paper-section mapping.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/storage"
	"repro/internal/tile"
)

// WriteSegment persists the table to a segment file at path: every
// tile's extracted columns and binary-JSON fallback as compressed,
// checksummed blocks, plus a footer carrying the tile headers (seen-
// path bloom filters, zone maps) and the relation statistics. Pending
// inserts are flushed first. The write is atomic: the file appears
// under its final name only when complete.
func (t *Table) WriteSegment(path string) error {
	if err := t.Flush(); err != nil {
		return err
	}
	if t.rel == nil {
		return fmt.Errorf("jsontiles: table %q has no data to persist", t.name)
	}
	store, err := blockstore.NewFS(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer store.Close()
	return storage.WriteSegmentStore(store, filepath.Base(path), t.rel)
}

// OpenSegment opens a segment file as a disk-backed table. Opening
// reads only the header, the fixed tail, and the footer; queries then
// materialize just the tiles that survive skipping and the columns
// they access, block by block, through a buffer pool bounded by
// opts.CacheBytes. Query semantics are identical to the in-memory
// table the segment was written from. A missing file fails with an
// error satisfying errors.Is(err, fs.ErrNotExist).
//
// The returned table holds an open file handle; call Close when done.
//
// With opts.Store set, path names an object within that store instead
// of a filesystem path; the caller keeps ownership of the store.
func OpenSegment(name, path string, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	maybeServeDebug(opts.DebugAddr)
	store, object, size := opts.Store, path, int64(0)
	var own BlockStore
	if store == nil {
		// Stat first: the FS store creates its directory, and a failed
		// open must leave nothing behind.
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		fsStore, err := blockstore.NewFS(filepath.Dir(path))
		if err != nil {
			return nil, err
		}
		store, object, size, own = fsStore, filepath.Base(path), fi.Size(), fsStore
	}
	rel, err := storage.OpenSegmentStore(name, store, object, size, bufpool.New(opts.CacheBytes), opts.loaderConfig())
	if err != nil {
		closeStore(own)
		return nil, err
	}
	return &Table{name: name, opts: opts, rel: rel, metrics: &tile.Metrics{}, store: own}, nil
}

// Close releases resources held by a disk-backed table (its cached
// blocks and, for a table opened from a filesystem path, the store's
// file handles). In-memory tables have nothing to release; Close is a
// no-op for them.
func (t *Table) Close() error {
	var err error
	if c, ok := t.rel.(interface{ Close() error }); ok {
		err = c.Close()
	}
	if cerr := closeStore(t.store); err == nil {
		err = cerr
	}
	return err
}

// closeStore closes a store this package built from a path (nil: the
// caller's store, or none).
func closeStore(s BlockStore) error {
	if s == nil {
		return nil
	}
	return blockstore.Close(s)
}

// ScanErr returns the first block-level error any query on a
// disk-backed table encountered. Scans degrade unreadable blocks to
// NULL values rather than failing mid-query; callers that must
// distinguish "NULL because absent" from "NULL because unreadable"
// check ScanErr after querying. Always nil for in-memory tables.
func (t *Table) ScanErr() error {
	if e, ok := t.rel.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
