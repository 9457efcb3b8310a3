package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/column"
	"repro/internal/jsonb"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/tile"
)

// segRelation is the disk-backed counterpart of tilesRelation: a
// relation whose tiles live in a segment file and whose scans
// materialize only the blocks they touch, through the buffer pool.
// Tile skipping, access plans, and result values are identical
// to the in-memory relation (both run the shared scan core); the
// difference is purely physical — lazy, cached, checksummed I/O.
type segRelation struct {
	name    string
	r       *segment.Reader
	pool    *bufpool.Pool
	numRows int
	cfg     scanConfig

	mu        sync.Mutex
	err       error        // first degraded-scan error (corrupt block served as NULLs)
	evictions atomic.Int64 // pool evictions already forwarded to the registry
}

var (
	_ Relation    = (*segRelation)(nil)
	_ TileCounter = (*segRelation)(nil)
)

// WriteSegmentStore persists a tile-backed relation (the Tiles format)
// as the named segment object of store. Relations of other formats
// have no tiles to persist and are rejected.
func WriteSegmentStore(store blockstore.Store, object string, rel Relation) error {
	ti, ok := rel.(TileIntrospector)
	if !ok {
		return fmt.Errorf("storage: relation %q (%T) is not tile-backed; only the Tiles format persists as a segment", rel.Name(), rel)
	}
	_, err := segment.WriteStore(store, object, ti.Tiles(), rel.Stats())
	return err
}

// OpenSegmentStore opens the named segment object of a block store as
// a disk-backed relation; the caller keeps ownership of the store.
// size is the object's size when the caller knows it (the manifest
// records it, a writer just produced it), which saves the open a
// round trip; 0 probes. All block reads flow through pool (a private
// default-capacity pool when nil — pass a shared pool to bound memory
// across many open segments). cfg supplies the scan settings (tile
// skipping, array-slot caps); zero values take the defaults.
func OpenSegmentStore(name string, store blockstore.Store, object string, size int64, pool *bufpool.Pool, cfg LoaderConfig) (*segRelation, error) {
	if pool == nil {
		pool = bufpool.New(0)
	}
	r, err := segment.OpenStoreSized(store, object, pool, size)
	if err != nil {
		return nil, err
	}
	return &segRelation{name: name, r: r, pool: pool, numRows: r.NumRows(), cfg: scanCfgOf(cfg)}, nil
}

func (r *segRelation) Name() string             { return r.name }
func (r *segRelation) NumRows() int             { return r.numRows }
func (r *segRelation) Stats() *stats.TableStats { return r.r.Stats() }
func (r *segRelation) NumTiles() int            { return r.r.NumTiles() }

// SizeBytes is the stored footprint of the segment object.
func (r *segRelation) SizeBytes() int { return int(r.r.FileSize()) }

// Close drops the segment's cached blocks; the store stays open.
func (r *segRelation) Close() error { return r.r.Close() }

// Pool exposes the buffer pool serving this relation (diagnostics,
// EXPLAIN ANALYZE cache summaries).
func (r *segRelation) Pool() *bufpool.Pool { return r.pool }

// Err returns the first block-level error any scan encountered.
// Scans degrade corrupt or unreadable blocks to NULL values rather
// than panicking mid-query; callers that must distinguish "NULL
// because absent" from "NULL because unreadable" check Err after the
// scan.
func (r *segRelation) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *segRelation) recordErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// ScanBatches runs the shared batch-scan core over lazy tile views.
func (r *segRelation) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	scanBatchesCore(ctx, r, accesses, workers, emit, st)
	flushPoolCounters(r.pool, &r.evictions)
}

// flushPoolCounters forwards pool's eviction count to the global
// registry once per scan: evictions are a pool property, not a
// per-scan one, so they are snapshotted rather than accumulated per
// worker, and the registry, which totals all pools, gets only the
// delta since *forwarded.
func flushPoolCounters(pool *bufpool.Pool, forwarded *atomic.Int64) {
	n := pool.Stats().Evictions
	obs.BufpoolEvictions.Add(n - forwarded.Swap(n))
	updateHitRatioGauge()
}

// updateHitRatioGauge refreshes the process-wide pool hit-ratio gauge
// from the global hit/miss counters (exact across all pools).
func updateHitRatioGauge() {
	hits, misses := obs.BufpoolHits.Load(), obs.BufpoolMisses.Load()
	if total := hits + misses; total > 0 {
		obs.BufpoolHitRatio.Set(float64(hits) / float64(total))
	}
}

// scanSource implementation.
func (r *segRelation) scanConfig() scanConfig { return r.cfg }

func (r *segRelation) appendTileRows(dst []int) []int {
	for ti := range r.r.NumTiles() {
		dst = append(dst, r.r.Tile(ti).Rows)
	}
	return dst
}

func (r *segRelation) openScanTile(ti int, cnt *scanCounters) scanTile {
	return &segTileView{rel: r, ti: ti, meta: r.r.Tile(ti), cnt: cnt}
}

// segTileView is a per-scan lazy view of one tile. Metadata queries
// (row count, skip checks, access plans) answer from the footer;
// column data and fallback documents load through the buffer pool on
// first access and stay cached in the view for the rest of the scan.
// Views are per-worker and never shared, so no locking.
type segTileView struct {
	rel  *segRelation
	ti   int
	meta *segment.TileMeta
	cnt  *scanCounters

	cols   []tile.ColumnInfo // Col nil until loaded
	loaded []bool
	docs   [][]byte
	docsOK bool
}

func (v *segTileView) NumRows() int                     { return v.meta.Rows }
func (v *segTileView) MayContainPath(path string) bool  { return v.meta.MayContainPath(path) }
func (v *segTileView) ColumnsForPath(path string) []int { return v.meta.ColumnsForPath(path) }

func (v *segTileView) ColumnType(idx int) (keypath.ValueType, bool) {
	return v.meta.Columns[idx].StorageType, v.meta.Columns[idx].HasTypeOutliers
}

func (v *segTileView) account(info segment.ReadInfo) {
	if v.cnt == nil {
		return
	}
	if info.Decoded {
		v.cnt.BlocksDecoded++
	}
	if info.Hit {
		switch {
		case info.Prefetched:
			// First access to a block the window fetched ahead: the
			// fetch accounted the miss; this is the lookahead paying off.
			v.cnt.StorePrefetchHits++
		case info.Warmed:
			// First access to a block the claim itself fetched: the
			// fetch accounted the miss, so counting a hit here would
			// make every cold scan look half-cached.
		default:
			v.cnt.PoolHits++
		}
	} else {
		v.cnt.PoolMisses++
		v.cnt.StoreRangeReads += int64(info.RangeReads)
		v.cnt.StoreBytesRead += int64(info.StoredBytes)
		v.cnt.StoreRetries += int64(info.Retries)
	}
}

// Column lazily materializes one extracted column. A block that
// fails its checksum or decode degrades to an all-NULL column of the
// declared type — the scan completes with NULLs instead of crashing
// mid-query — and the error is recorded on the relation.
func (v *segTileView) Column(idx int) *tile.ColumnInfo {
	if v.cols == nil {
		v.cols = make([]tile.ColumnInfo, len(v.meta.Columns))
		v.loaded = make([]bool, len(v.meta.Columns))
	}
	if !v.loaded[idx] {
		v.loaded[idx] = true
		cm := &v.meta.Columns[idx]
		col, infos, err := v.rel.r.ColumnT(v.cnt.tenant, v.ti, idx)
		for _, info := range infos {
			v.account(info)
		}
		if err != nil {
			v.rel.recordErr(err)
			col = nullColumn(cm.StorageType, v.meta.Rows)
		}
		v.cols[idx] = tile.ColumnInfo{
			Path:            cm.Path,
			MinedType:       cm.MinedType,
			StorageType:     cm.StorageType,
			HasTypeOutliers: cm.HasTypeOutliers,
			Col:             col,
		}
	}
	return &v.cols[idx]
}

// Raw lazily loads the tile's fallback documents; an unreadable docs
// block degrades every fallback access to NULL (empty document).
func (v *segTileView) Raw(i int) jsonb.Doc {
	if !v.docsOK {
		v.docsOK = true
		docs, info, err := v.rel.r.DocsT(v.cnt.tenant, v.ti)
		v.account(info)
		if err != nil {
			v.rel.recordErr(err)
			docs = make([][]byte, v.meta.Rows)
		}
		v.docs = docs
	}
	return jsonb.NewDoc(v.docs[i])
}

// nullColumn builds an all-NULL column of n rows (degraded reads).
func nullColumn(t keypath.ValueType, n int) *column.Column {
	c := column.New(t)
	for i := 0; i < n; i++ {
		c.AppendNull()
	}
	return c
}
