package obs

import "sync"

// ScanCounts are the counters of one relation scan, declared once:
// each scan worker and each store fetch counts into a ScanCounts of its
// own (plain integers, so the per-row path touches no shared memory),
// the scan's ScanStats sums them, and EXPLAIN ANALYZE renders the sum.
type ScanCounts struct {
	// Morsels is the number of work units the scan was cut into for
	// the morsel scheduler (EXPLAIN ANALYZE `morsels=`).
	Morsels int64

	// TilesScanned + TilesSkipped is the relation's tile count (0 for
	// formats without tiles); TilesSkipped counts tiles pruned without
	// reading any tuple (§4.8).
	TilesScanned int64
	TilesSkipped int64
	RowsScanned  int64
	// ColumnHits counts accesses served from a materialized column;
	// JSONBFallbacks counts accesses that fell back to the per-tuple
	// binary JSON (§4.5/§5).
	ColumnHits     int64
	JSONBFallbacks int64
	// CastErrors counts stored non-null values a requested cast could
	// not convert.
	CastErrors int64

	// Batches counts the column batches the scan emitted.
	// RowsVectorized counts rows whose every access came as a whole
	// vector; RowsFallback counts rows with at least one access
	// resolved per row: from binary JSON or cell by cell from a
	// column. The split is counted by tile
	// scans only: formats without tiles count Batches alone.
	Batches        int64
	RowsVectorized int64
	RowsFallback   int64
	// RowsNarrowed counts scanned rows the scan dropped before emitting
	// their batch: rows a conjunct of the filter on one access, or a
	// null-rejecting access's NULL, rules out.
	RowsNarrowed int64
	// DocWalks counts rows whose binary JSON the scan walked once for
	// all of the accesses their tile serves from documents; each such
	// cell counts one JSONBFallback.
	DocWalks int64
	// DictKernelShortcuts counts the predicate kernels the scan's own
	// filters, and a residual filter above it, evaluated in dictionary
	// code space.
	DictKernelShortcuts int64

	// Segment I/O (zero for in-memory relations): buffer-pool hits vs
	// misses for the scan's block accesses, each miss one block read
	// from the store, and the blocks this scan turned into a column or
	// a document directory (the first access of a pool residency
	// decodes, so a warm scan reports 0). Skipped tiles and unaccessed
	// columns never appear here: their blocks are never requested.
	PoolHits      int64
	PoolMisses    int64
	BlocksDecoded int64

	// Block-store traffic (zero when every block was pool-resident):
	// ranged read requests issued (retry attempts included), payload
	// bytes those requests returned (coalescing gap bytes included),
	// block fetches saved by coalescing adjacent reads, pool hits on
	// readahead-resident blocks, and transient-failure retries.
	StoreRangeReads   int64
	StoreBytesRead    int64
	StoreCoalesced    int64
	StorePrefetchHits int64
	StoreRetries      int64
}

// Add adds o into c, field by field.
func (c *ScanCounts) Add(o *ScanCounts) {
	c.Morsels += o.Morsels
	c.TilesScanned += o.TilesScanned
	c.TilesSkipped += o.TilesSkipped
	c.RowsScanned += o.RowsScanned
	c.ColumnHits += o.ColumnHits
	c.JSONBFallbacks += o.JSONBFallbacks
	c.CastErrors += o.CastErrors
	c.Batches += o.Batches
	c.RowsVectorized += o.RowsVectorized
	c.RowsFallback += o.RowsFallback
	c.RowsNarrowed += o.RowsNarrowed
	c.DocWalks += o.DocWalks
	c.DictKernelShortcuts += o.DictKernelShortcuts
	c.PoolHits += o.PoolHits
	c.PoolMisses += o.PoolMisses
	c.BlocksDecoded += o.BlocksDecoded
	c.StoreRangeReads += o.StoreRangeReads
	c.StoreBytesRead += o.StoreBytesRead
	c.StoreCoalesced += o.StoreCoalesced
	c.StorePrefetchHits += o.StorePrefetchHits
	c.StoreRetries += o.StoreRetries
}

// forward adds the counts that have a process-wide series into
// Default and refreshes the pool hit-ratio gauge beside the hit and
// miss series. The rest are counted process-wide where they happen:
// morsels by the queue runner, decodes by the segment reader, prefetch
// hits and evictions by the buffer pool, and store traffic at the store
// layer, so forwarding those would double-count.
func (c *ScanCounts) forward() {
	TilesScanned.Add(c.TilesScanned)
	TilesSkipped.Add(c.TilesSkipped)
	RowsScanned.Add(c.RowsScanned)
	ColumnHits.Add(c.ColumnHits)
	JSONBFallbacks.Add(c.JSONBFallbacks)
	CastErrors.Add(c.CastErrors)
	BatchesEmitted.Add(c.Batches)
	RowsVectorized.Add(c.RowsVectorized)
	RowsBatchFallback.Add(c.RowsFallback)
	RowsNarrowed.Add(c.RowsNarrowed)
	DocWalks.Add(c.DocWalks)
	DictKernelShortcuts.Add(c.DictKernelShortcuts)
	SegmentBytesRead.Add(c.StoreBytesRead)
	if c.PoolHits+c.PoolMisses > 0 {
		BufpoolHits.Add(c.PoolHits)
		BufpoolMisses.Add(c.PoolMisses)
		hits, misses := BufpoolHits.Load(), BufpoolMisses.Load()
		BufpoolHitRatio.Set(float64(hits) / float64(hits+misses))
	}
}

// SkipRatio returns the fraction of tiles skipped of those considered.
func (c ScanCounts) SkipRatio() float64 {
	total := c.TilesScanned + c.TilesSkipped
	if total == 0 {
		return 0
	}
	return float64(c.TilesSkipped) / float64(total)
}

// ScanStats is the sink of one relation scan's counts and error, for
// EXPLAIN ANALYZE, the live-query registry and Query.run. NumTiles and
// SegmentsLive are set by the planner before the scan starts and read
// only after it ends; the counts arrive through Add once per morsel or
// store fetch, so the lock is off the per-row path.
type ScanStats struct {
	// NumTiles is the total tile count of the scanned relation (0 for
	// formats without tiles).
	NumTiles int64
	// SegmentsLive is the number of live segments backing the scanned
	// relation (0 for single-file and in-memory formats).
	SegmentsLive int64

	mu     sync.Mutex
	counts ScanCounts
	err    error
}

// Add forwards c to the process-wide series and, on a non-nil s, adds
// it to the scan's counts.
func (s *ScanStats) Add(c *ScanCounts) {
	c.forward()
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counts.Add(c)
	s.mu.Unlock()
}

// Fail records the error that stopped the scan; a nil s drops it.
func (s *ScanStats) Fail(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Err returns the error that stopped the scan (nil: it read every block).
func (s *ScanStats) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Counts returns the counts added so far.
func (s *ScanStats) Counts() ScanCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}
