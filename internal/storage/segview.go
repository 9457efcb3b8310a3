package storage

// A directory table's scans read segments through lazy per-tile views:
// only the blocks a query touches leave the store, through the buffer
// pool.

import (
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/jsonb"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/tile"
)

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

// segTileView is a per-scan lazy view of one tile. Metadata queries
// (row count, skip checks, access plans) answer from the footer;
// column data and fallback documents load through the buffer pool on
// first access and stay cached in the view for the rest of the scan.
// Views are per-worker and never shared, so no locking.
type segTileView struct {
	r    *segment.Reader
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

// scanFault carries a block read error from a view to the scan core's
// morsel loop, which stops the scan: a view fabricates no cell (§4.5).
type scanFault struct{ err error }

// Column lazily materializes one extracted column. A block that fails
// its checksum or decode faults the scan (scanFault).
func (v *segTileView) Column(idx int) *tile.ColumnInfo {
	if v.cols == nil {
		v.cols = make([]tile.ColumnInfo, len(v.meta.Columns))
		v.loaded = make([]bool, len(v.meta.Columns))
	}
	if !v.loaded[idx] {
		v.loaded[idx] = true
		cm := &v.meta.Columns[idx]
		col, infos, err := v.r.ColumnT(v.cnt.tenant, v.ti, idx)
		for _, info := range infos {
			v.account(info)
		}
		if err != nil {
			panic(scanFault{err})
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
// block faults the scan (scanFault).
func (v *segTileView) Raw(i int) jsonb.Doc {
	if !v.docsOK {
		docs, info, err := v.r.DocsT(v.cnt.tenant, v.ti)
		v.account(info)
		if err != nil {
			panic(scanFault{err})
		}
		v.docs, v.docsOK = docs, true
	}
	return jsonb.NewDoc(v.docs[i])
}
