package jsontiles

// Multi-segment table directories: a Table can live in a directory of
// immutable segment files catalogued by a crash-safe manifest — an FS
// block store built at OpenDir, the one place a path becomes a store.
// Flush appends a new segment — O(new data), never a rewrite — and a
// size-tiered compactor folds small segments into larger ones, in the
// background or on demand via Compact. See DESIGN.md §6 for the
// on-disk story and crash-recovery invariants.

import (
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/storage"
)

// OpenDir opens (or creates) a multi-segment table rooted at dir.
// The directory holds one segment file per flush plus a MANIFEST
// cataloguing the live segments; the table's first write removes
// half-written temporaries and segment files whose manifest commit
// never happened (a crash between segment write and manifest rename
// leaves exactly such a file). Queries scan the union of live
// segments, skipping tiles on their headers' extracted paths and
// bloom filters; Insert + Flush append new segments; Compact (and, unless disabled, a
// background compactor) keeps the segment count bounded.
//
// The returned table holds open file handles; call Close when done.
// Concurrent queries during Flush, Compact, and Close are safe — each
// query pins the segment generation it started with.
func OpenDir(name, dir string, opts Options) (*Table, error) {
	store, err := blockstore.NewFS(dir)
	if err != nil {
		return nil, err
	}
	t, err := OpenStore(name, store, opts)
	if err != nil {
		store.Close()
		return nil, err
	}
	t.store = store
	return t, nil
}

// Compact runs size-tiered compaction to completion on a directory-
// backed table, returning how many merge rounds ran. Queries running
// concurrently keep reading the generation they started with; the
// files they pin are deleted only after the last reader finishes.
// Tables not backed by a directory have nothing to compact and
// return 0.
func (t *Table) Compact() (int, error) {
	if dt, ok := t.rel.(*storage.DirTable); ok {
		return dt.Compact()
	}
	return 0, nil
}

// SetTenantQuota caps how many buffer-pool payload bytes queries
// running under the named tenant (obs.WithTenant) may keep resident
// in this table's pool. Exceeding the quota evicts the tenant's own
// unpinned blocks first, so one tenant's working set cannot push out
// everyone else's. Quota 0 removes the cap. A no-op for in-memory
// tables, which have no buffer pool.
func (t *Table) SetTenantQuota(tenant string, quota int64) {
	if dt, ok := t.rel.(*storage.DirTable); ok {
		dt.Pool().SetQuota(tenant, quota)
	}
}

// NumSegments returns the number of live segment files backing a
// directory-backed table (1-per-flush until compaction folds them).
// Other table kinds return 0.
func (t *Table) NumSegments() int {
	if dt, ok := t.rel.(*storage.DirTable); ok {
		return dt.NumSegments()
	}
	return 0
}

// SizeBytes returns the total on-disk size of the live segment files
// of a directory-backed table. Other table kinds return 0.
func (t *Table) SizeBytes() int64 {
	if dt, ok := t.rel.(*storage.DirTable); ok {
		return int64(dt.SizeBytes())
	}
	return 0
}

// AppendTable appends another table's tiles to a directory-backed
// table as one new segment (src is flushed first and left unchanged).
// It is how bulk-loaded in-memory tables move into a directory:
//
//	mem, _ := jsontiles.LoadReader("t", f, opts)
//	dir, _ := jsontiles.OpenDir("t", path, opts)
//	err := dir.AppendTable(mem)
func (t *Table) AppendTable(src *Table) error {
	dt, ok := t.rel.(*storage.DirTable)
	if !ok {
		return fmt.Errorf("jsontiles: AppendTable target %q is not directory-backed", t.name)
	}
	if err := src.Flush(); err != nil {
		return err
	}
	if src.rel == nil || src.rel.NumRows() == 0 {
		return nil
	}
	ti, ok := src.rel.(storage.TileIntrospector)
	if !ok {
		return fmt.Errorf("jsontiles: AppendTable source %q is not tile-backed", src.name)
	}
	return dt.AppendTiles(ti.Tiles(), src.rel.Stats(), t.opts.workers())
}

// Close releases resources held by a persisted table: its cached
// blocks and, for a table OpenDir opened, the store's file handles.
// In-memory tables have nothing to release; Close is a no-op for them.
func (t *Table) Close() error {
	var err error
	if dt, ok := t.rel.(*storage.DirTable); ok {
		err = dt.Close()
	}
	if t.store != nil {
		if cerr := blockstore.Close(t.store); err == nil {
			err = cerr
		}
	}
	return err
}

// ScanErr returns a persisted table's first recorded error: a scan
// stopped by a block that failed its read, or a failed background
// compaction. A query that reads such a block fails on its own with
// ErrUnreadable. Always nil for in-memory tables.
func (t *Table) ScanErr() error {
	if dt, ok := t.rel.(*storage.DirTable); ok {
		return dt.Err()
	}
	return nil
}
