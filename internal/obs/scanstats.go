package obs

import "sync/atomic"

// ScanStats collects the counters of one relation scan for EXPLAIN
// ANALYZE. Relations batch their updates per tile (or per worker
// chunk), so the atomic adds are off the per-row path. NumTiles is set
// by the planner before the scan starts and read only after it ends.
type ScanStats struct {
	// NumTiles is the total tile count of the scanned relation (0 for
	// formats without tiles).
	NumTiles int64

	// SegmentsLive is the number of live segments backing the scanned
	// relation (0 for single-file and in-memory formats). Set by the
	// planner alongside NumTiles.
	SegmentsLive int64

	// Morsels is the number of work units the scan was cut into for
	// the morsel scheduler (EXPLAIN ANALYZE `morsels=`).
	Morsels atomic.Int64

	TilesScanned   atomic.Int64
	TilesSkipped   atomic.Int64
	RowsScanned    atomic.Int64
	ColumnHits     atomic.Int64
	JSONBFallbacks atomic.Int64
	CastErrors     atomic.Int64

	// Batch-execution split: batches emitted by this scan, rows whose
	// accesses were all served from typed vectors, and rows that
	// needed at least one materialized (boxed) cell. The split is
	// counted by tile scans only: formats without tiles emit boxed
	// batches and count Batches alone.
	Batches        atomic.Int64
	RowsVectorized atomic.Int64
	RowsFallback   atomic.Int64
	// RowsNarrowed counts scanned rows the scan core dropped before
	// emitting their batch (EXPLAIN ANALYZE `narrowed=`).
	RowsNarrowed atomic.Int64
	// DocWalks counts rows whose binary JSON one walk read for every
	// document-served access of their tile (EXPLAIN ANALYZE `walks=`).
	DocWalks atomic.Int64

	// Segment I/O split (zero for in-memory relations): blocks and
	// stored bytes read from disk, buffer-pool hits vs misses for this
	// scan's block accesses, and the blocks this scan had to decode
	// (first access of a pool residency; 0 on a warm scan).
	BlocksRead    atomic.Int64
	BlockBytes    atomic.Int64
	PoolHits      atomic.Int64
	PoolMisses    atomic.Int64
	BlocksDecoded atomic.Int64

	// BlockStore split (zero when every block was pool-resident):
	// ranged read requests this scan issued (retry attempts included),
	// payload bytes those requests returned (coalescing gap bytes
	// included), block fetches saved by coalescing, pool hits on
	// readahead-resident blocks, and transient-failure retries.
	StoreRangeReads   atomic.Int64
	StoreBytesRead    atomic.Int64
	StoreCoalesced    atomic.Int64
	StorePrefetchHits atomic.Int64
	StoreRetries      atomic.Int64
}

// SkipRatio returns the fraction of tiles skipped of those considered.
func (s *ScanStats) SkipRatio() float64 {
	if s == nil {
		return 0
	}
	total := s.TilesScanned.Load() + s.TilesSkipped.Load()
	if total == 0 {
		return 0
	}
	return float64(s.TilesSkipped.Load()) / float64(total)
}
