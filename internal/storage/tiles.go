package storage

import (
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/jsontape"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/vec"
)

// tilesRelation is the paper's contribution: documents stored as JSON
// tiles with local column extraction, partition reordering during
// load, relation-level statistics, per-tile access plans, and
// tile skipping.
type tilesRelation struct {
	name    string
	cfg     LoaderConfig
	tiles   []*tile.Tile
	numRows int
	stats   *stats.TableStats
}

var (
	_ Relation         = (*tilesRelation)(nil)
	_ TileIntrospector = (*tilesRelation)(nil)
)

type tilesLoader struct {
	cfg LoaderConfig
}

func (l tilesLoader) Load(name string, lines [][]byte, workers int) (Relation, error) {
	return BuildTilesFromLines(name, lines, l.cfg, workers)
}

// partBuilder is what one partition's body of buildPartitions works
// with: the settings every body applies.
type partBuilder struct {
	tcfg    tile.Config
	reorder bool // cfg.Reorder && PartitionSize > 1
	workers int
	metrics *tile.Metrics
}

// buildPartitions is the one partition → tiles loop of every Tiles
// build. The n documents are cut into partitions of TileSize ×
// PartitionSize and the partitions are fully independent (§3.2: "Each
// thread is dedicated to a disjoint subset of the data"), so each is
// one morsel: a partition is already thousands of documents, so unit
// granularity gives the queue its work stealing without splitting the
// reorder/extraction scope. body builds documents [lo, hi) into tiles
// (nil when it fails); the tiles are concatenated in partition order.
// Build metrics go to cfg.Metrics.
func buildPartitions(name string, n int, cfg LoaderConfig, workers int,
	body func(pb *partBuilder, lo, hi int) []*tile.Tile) *tilesRelation {
	tcfg := cfg.Tile
	if tcfg.TileSize <= 0 {
		tcfg = tile.DefaultConfig()
	}
	partDocs := tcfg.TileSize * tcfg.PartitionSize
	if partDocs <= 0 {
		partDocs = tcfg.TileSize
	}
	partTiles := make([][]*tile.Tile, (n+partDocs-1)/partDocs)
	morselEach(len(partTiles), workers, func(_, p int) {
		pb := &partBuilder{tcfg: tcfg, reorder: cfg.Reorder && tcfg.PartitionSize > 1,
			workers: workers, metrics: cfg.Metrics}
		lo := p * partDocs
		partTiles[p] = body(pb, lo, min(lo+partDocs, n))
	})
	r := &tilesRelation{name: name, cfg: cfg, numRows: n, stats: stats.New(0, 0)}
	for _, pt := range partTiles {
		for _, t := range pt {
			r.tiles = append(r.tiles, t)
			r.stats.AddTile(t)
		}
	}
	return r
}

// tapes reorders one partition of parsed documents (§3.2) and cuts it
// into tiles. Reordering walks every document and hands the walks on,
// so each tile builds from its documents' walk instead of walking them
// again.
func (pb *partBuilder) tapes(docs []*jsontape.Doc) []*tile.Tile {
	var walks *reorder.Walks
	if pb.reorder {
		_, walks = reorder.PartitionTapesWorkers(docs, pb.tcfg, pb.metrics, pb.workers)
	}
	// Once reordered, the tiles of a partition are independent, so each
	// is one morsel with its own builder: a flush of one partition still
	// uses every worker. Helpers come from the shared pool, and one that
	// has not started by the time the inline drain empties the queue
	// does nothing, so a flush beside busy queries runs serially instead
	// of competing.
	size := pb.tcfg.TileSize
	tiles := make([]*tile.Tile, (len(docs)+size-1)/size)
	morselEach(len(tiles), pb.workers, func(_, k int) {
		b := tile.NewBuilder(pb.tcfg, pb.metrics)
		part := docs[k*size : min((k+1)*size, len(docs))]
		if w := walks.Tile(k); w != nil {
			tiles[k] = b.BuildWalk(part, w)
		} else {
			tiles[k] = b.BuildTape(part)
		}
	})
	return tiles
}

func (r *tilesRelation) Name() string             { return r.name }
func (r *tilesRelation) NumRows() int             { return r.numRows }
func (r *tilesRelation) Stats() *stats.TableStats { return r.stats }

// Tiles exposes the underlying tiles (tests, size accounting, array
// extraction).
func (r *tilesRelation) Tiles() []*tile.Tile { return r.tiles }

// NumTiles implements TileCounter.
func (r *tilesRelation) NumTiles() int { return len(r.tiles) }

func (r *tilesRelation) SizeBytes() int {
	total := 0
	for _, t := range r.tiles {
		total += t.RawSizeBytes() + t.ColumnSizeBytes()
	}
	return total
}

// ColumnSizeBytes returns only the materialized-column overhead (the
// "+Tiles" column of Table 6).
func (r *tilesRelation) ColumnSizeBytes() int {
	total := 0
	for _, t := range r.tiles {
		total += t.ColumnSizeBytes()
	}
	return total
}

// CompressedColumnSizeBytes returns the LZ4-compressed column bytes
// ("+LZ4-Tiles", Table 6).
func (r *tilesRelation) CompressedColumnSizeBytes() int {
	total := 0
	for _, t := range r.tiles {
		total += t.ColumnCompressedSizeBytes()
	}
	return total
}

// UpdateRow replaces the document at global row index i in place
// (§4.7) and reports whether the tile now wants recomputation.
func (r *tilesRelation) UpdateRow(i int, d *jsontape.Doc) (needsRecompute bool, err error) {
	if i < 0 || i >= r.numRows {
		return false, fmt.Errorf("storage: row %d out of range (%d rows)", i, r.numRows)
	}
	for _, t := range r.tiles {
		if i < t.NumRows() {
			t.Update(i, d, r.cfg.Tile.MaxArraySlots)
			return t.NeedsRecompute(), nil
		}
		i -= t.NumRows()
	}
	return false, fmt.Errorf("storage: row index beyond tiles")
}

// RecomputeTiles re-materializes every tile whose update-introduced
// outliers exceed the §4.7 threshold, re-mining the (changed) frequent
// structures. Relation statistics are rebuilt from all tiles. It
// returns the number of tiles recomputed.
func (r *tilesRelation) RecomputeTiles() int {
	tcfg := r.cfg.Tile
	if tcfg.TileSize <= 0 {
		tcfg = tile.DefaultConfig()
	}
	builder := tile.NewBuilder(tcfg, r.cfg.Metrics)
	recomputed := 0
	for i, t := range r.tiles {
		if !t.NeedsRecompute() {
			continue
		}
		if nt, ok := rebuildTile(builder, t); ok {
			r.tiles[i] = nt
			recomputed++
		}
	}
	if recomputed > 0 {
		r.stats = stats.New(0, 0)
		for _, t := range r.tiles {
			r.stats.AddTile(t)
		}
	}
	return recomputed
}

// rebuildTile builds a tile afresh from t's own documents: each row's
// binary JSON rendered back to text and parsed into a tape. A row whose
// text the tape cannot hold fails the rebuild (ok is false); t then
// stays as it is, and still answers correctly from its binary JSON.
func rebuildTile(b *tile.Builder, t *tile.Tile) (_ *tile.Tile, ok bool) {
	var text []byte
	ends := make([]int, t.NumRows())
	for i := range ends {
		text = t.Raw(i).AppendJSON(text)
		ends[i] = len(text)
	}
	tapes := make([]*jsontape.Doc, len(ends))
	lo := 0
	for i, hi := range ends {
		tapes[i] = new(jsontape.Doc)
		if jsontape.Parse(text[lo:hi], tapes[i]) != nil {
			return nil, false
		}
		lo = hi
	}
	return b.BuildTape(tapes), true
}

// RawSizeBytes returns the binary JSON bytes.
func (r *tilesRelation) RawSizeBytes() int {
	total := 0
	for _, t := range r.tiles {
		total += t.RawSizeBytes()
	}
	return total
}

// scanCounters are one scan worker's (or one store fetch's) counts:
// plain integers on the per-row path, added to the scan's stats once
// per morsel or fetch. tenant attributes the scan's buffer-pool charges
// and byte accounting to the query's tenant ("" for library calls).
type scanCounters struct {
	obs.ScanCounts
	tenant string
}

func (c *scanCounters) flush(st *obs.ScanStats) {
	st.Add(&c.ScanCounts)
	if c.tenant != "" && c.StoreBytesRead > 0 {
		obs.Tenants.Get(c.tenant).BytesScanned.Add(c.StoreBytesRead)
	}
}

// scanScratch holds what one morsel reuses from tile to tile — the
// batch, the accesses' plans, the writers of the vectors resolved per
// row, widened vectors, scanCells' boxed vectors, the narrowing
// predicates' scratch, which holds the live-row selection, and the
// document walk's state — pooled across scans.
type scanScratch struct {
	batch vec.Batch
	plans []accessPlan
	cells []vec.Writer
	boxed [][]expr.Value
	fbuf  [][]float64
	ps    *vec.Scratch
	walk  docWalk
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// getScanScratch returns a pooled scratch for n accesses, its
// predicate scratch fitted to preds. A scratch sized for fewer grows in
// place, keeping every slot's buffers.
func getScanScratch(n int, preds []*vec.CompiledPred) *scanScratch {
	s := scanScratchPool.Get().(*scanScratch)
	s.batch.Cols = resize(s.batch.Cols, n)
	s.plans = resize(s.plans, n)
	s.cells = resize(s.cells, n)
	s.boxed = resize(s.boxed, n)
	s.fbuf = resize(s.fbuf, n)
	for _, p := range preds {
		if p != nil {
			s.ps = p.Fit(s.ps)
		}
	}
	return s
}

// finish ends a morsel: it adds the dictionary shortcuts the
// predicates took to cnt, flushes cnt into st, and returns s to the
// pool.
func (s *scanScratch) finish(cnt *scanCounters, st *obs.ScanStats) {
	cnt.DictKernelShortcuts += s.ps.TakeDictShortcuts()
	cnt.flush(st)
	putScanScratch(s)
}

// resize returns s with length n, keeping the elements past its length
// that its capacity still holds.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// putScanScratch returns s to the pool holding no reference into
// buffer-pool memory: vectors, boxed cells — scanCells' and the ::JSON
// documents of the writers — and the walk's cursors alias documents and
// columns that an eviction or a dropped segment frees. The writers'
// typed cells are copies, which the next scan reuses.
func putScanScratch(s *scanScratch) {
	clear(s.batch.Cols)
	cells := s.cells[:cap(s.cells)]
	for i := range cells {
		cells[i].Release()
	}
	for i, vals := range s.boxed {
		clear(vals)
		s.boxed[i] = vals[:0]
	}
	s.batch.Sel = nil
	clear(s.walk.docs[:cap(s.walk.docs)])
	if s.ps != nil {
		s.ps.Release()
	}
	scanScratchPool.Put(s)
}

// scanSource implementation: in-memory tiles are their own scan
// views — no lazy I/O, no per-scan state.
func (r *tilesRelation) openScanTile(ti int, _ *scanCounters) scanTile { return r.tiles[ti] }
func (r *tilesRelation) scanConfig() scanConfig                        { return scanCfgOf(r.cfg) }

func (r *tilesRelation) appendTileRows(dst []int) []int {
	for _, t := range r.tiles {
		dst = append(dst, t.NumRows())
	}
	return dst
}
