package storage

import (
	"context"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/tile"
	"repro/internal/vec"
)

// The scan core: the one tile scan loop shared by the in-memory tiles
// relation and the disk-backed directory table, and the batch loop of
// the formats without tiles (scanCells). Both tile formats present
// their tiles through the scanTile view, so skip decisions, per-tile
// access plans (§4.5), and the column-hit vs binary-JSON-fallback split
// behave identically — a query over a reopened table returns
// byte-identical results to the in-memory path, with lazy block I/O as
// the only difference. Every format narrows its batches with the same
// per-access predicates (accessPreds).

// scanTile is one tile as the scan loop sees it. *tile.Tile satisfies
// it directly; the directory table implements it with a lazy view
// that fetches column and document blocks through the buffer pool on
// first access, so unaccessed columns and skipped tiles cost no I/O.
type scanTile interface {
	NumRows() int
	// MayContainPath, ColumnsForPath and ColumnType answer from tile
	// metadata alone: skip decisions and access plans happen before any
	// data access.
	MayContainPath(path string) bool
	ColumnsForPath(path string) []int
	ColumnType(idx int) (storage keypath.ValueType, hasOutliers bool)
	// Column may perform lazy I/O; it is only called for the column an
	// access plan chose.
	Column(idx int) *tile.ColumnInfo
	// Raw returns row i's whole document; Members, once per tile, each
	// row's part of the documents under a top-level key: its value (empty
	// if absent), or when whole an object holding it (docRows). Both may
	// load lazily; a directory table's Members loads only that part.
	Raw(i int) jsonb.Doc
	Members(key string) (rows [][]byte, whole bool)
}

var _ scanTile = (*tile.Tile)(nil)

// scanSource is a relation the scan core can drive: its tiles' row
// counts, read from metadata, and a per-scan view of each tile.
// openScanTile receives the worker's counter block so lazily loading
// views can account block I/O.
type scanSource interface {
	appendTileRows(dst []int) []int
	openScanTile(ti int, cnt *scanCounters) scanTile
	scanConfig() scanConfig
}

type scanConfig struct {
	skipTiles bool
	maxSlots  int
}

// scanRows is a row scan (StatsScanner) over a batch scan: it boxes
// each selected row of each batch into the worker's row buffer, so rows
// the scan narrows away are not emitted. Its only caller is
// DirTable.ScanWithStats, which benchmark/wrap.go requires.
func scanRows(ctx context.Context, bs BatchScanner, accesses []Access, workers int, emit EmitFunc, st *obs.ScanStats) {
	rows := make([][]expr.Value, max(workers, 1))
	for w := range rows {
		rows[w] = make([]expr.Value, len(accesses))
	}
	bs.ScanBatches(ctx, accesses, workers, func(w int, b *vec.Batch) {
		row := rows[w]
		for _, i := range b.Selected() {
			for c := range row {
				row[c] = b.Cols[c].Value(int(i))
			}
			emit(w, row)
		}
	}, st)
}

// scanPlan is what a tile scan compiles once from its accesses and
// shares, read-only, among its workers: each access's header path, the
// predicate each narrowing access narrows a tile's rows with, and the
// accesses fillBatch fills after narrowing, sorted by path for the
// document walk.
type scanPlan struct {
	accesses []Access
	cfg      scanConfig
	headers  []headerPath
	// preds[ai] is access ai's Filter, or, for a NullRejecting access
	// without one, IS NOT NULL; nil when it does not narrow.
	preds []*vec.CompiledPred
	// paths holds the accesses no predicate narrows in path order.
	paths walkPaths
}

func newScanPlan(accesses []Access, cfg scanConfig) *scanPlan {
	sp := &scanPlan{accesses: accesses, cfg: cfg, headers: headerPaths(accesses, cfg.maxSlots),
		preds: accessPreds(accesses)}
	sp.paths = sortWalkPaths(accesses, func(ai int) bool { return sp.preds[ai] == nil })
	return sp
}

// accessPreds compiles the predicate each access narrows a batch with:
// its Filter, or, for a NullRejecting access without one, IS NOT NULL;
// nil when it does not narrow.
func accessPreds(accesses []Access) []*vec.CompiledPred {
	preds := make([]*vec.CompiledPred, len(accesses))
	for ai, a := range accesses {
		f := a.Filter
		if f == nil && a.NullRejecting {
			f = expr.NewIsNull(expr.NewCol(ai, a.Type), true)
		}
		if f == nil {
			continue
		}
		p, ok := vec.Compile(f, len(accesses))
		if !ok {
			panic("storage: an access filter reads a column outside the scan")
		}
		preds[ai] = p
	}
	return preds
}

// cellBatchRows is the most rows a scanCells batch holds.
const cellBatchRows = 1024

// cellFill writes rows [lo, hi) of every access into cells: row lo+k
// of access ai is row k of cells[ai], a buffer reset to the access's
// type.
type cellFill func(lo, hi int, cells []vec.Buf, cnt *scanCounters)

// scanCells is the batch scan of a format without tiles: it cuts the
// rows [0, n) into morsels and each morsel into batches of at most
// cellBatchRows rows, has fill write every access's cells into typed
// vectors, then narrows the batch by the accesses' predicates
// (accessPreds), as the tile scan does. A batch with no live row is
// not emitted.
func scanCells(ctx context.Context, n int, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats, fill cellFill) {
	preds := accessPreds(accesses)
	morselRange(ctx, n, workers, func(w, lo, hi int) {
		sc := getScanScratch(len(accesses), preds)
		cnt := scanCounters{ScanCounts: obs.ScanCounts{Morsels: 1, RowsScanned: int64(hi - lo)}}
		defer sc.finish(&cnt, st)
		for blo := lo; blo < hi; blo += cellBatchRows {
			b := &sc.batch
			b.Len, b.Sel, b.Base = min(cellBatchRows, hi-blo), nil, int64(blo)
			for ai, a := range accesses {
				sc.cells[ai].Reset(a.Type, b.Len)
			}
			fill(blo, blo+b.Len, sc.cells, &cnt)
			for ai := range accesses {
				b.Cols[ai] = *sc.cells[ai].Vector()
			}
			for _, p := range preds {
				if p != nil && !sc.narrow(p) {
					break
				}
			}
			kept := b.Rows()
			cnt.RowsNarrowed += int64(b.Len - kept)
			if kept == 0 {
				continue
			}
			cnt.Batches++
			emit(w, b)
		}
	})
}

// plan is how tile t serves access ai.
func (sp *scanPlan) plan(t scanTile, ai int) accessPlan {
	return planAccess(t, sp.accesses[ai], sp.headers[ai])
}

// skippable reports whether the scan may skip tile t: it provably
// contains no tuple that can satisfy the query, as some null-rejecting
// access targets a path absent from the whole tile (§4.8). The root
// is in every tile.
// Metadata-only.
func (sp *scanPlan) skippable(t scanTile) bool {
	if !sp.cfg.skipTiles {
		return false
	}
	for ai, a := range sp.accesses {
		if a.NullRejecting && len(a.Path.Segs) > 0 && !t.MayContainPath(sp.headers[ai].enc) {
			return true
		}
	}
	return false
}

// scanBatchesCore is the shared tile scan loop: one batch per
// surviving tile (§4.8 skipping, §4.5 per-tile access plans, §4.5/§5
// column-hit vs fallback split, and the batch/vectorized-row split).
//
// Accesses with a Filter, or flagged NullRejecting, narrow the batch
// (fillBatch): a row their predicate does not keep cannot reach the
// result, so it is left out of the batch's selection and its remaining
// per-row cells are never resolved. Batches arrive with Sel != nil
// whenever a row was dropped; a tile with no live row emits nothing.
//
// A block a view cannot read (scanFault) stops the scan as a cancelled
// ctx does; the error goes on st and is returned (nil when the caller
// cancelled ctx: it knows why the scan stopped).
func scanBatchesCore(ctx context.Context, src scanSource, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) error {
	rowCounts := src.appendTileRows(nil)
	if len(rowCounts) == 0 {
		return nil
	}
	tenant := obs.TenantFrom(ctx)
	// Global row id of each tile's first row (Base of its batch).
	offs := make([]int64, len(rowCounts))
	var run int64
	for i, n := range rowCounts {
		offs[i] = run
		run += int64(n)
	}
	sp := newScanPlan(accesses, src.scanConfig())
	morsels := buildTileMorsels(rowCounts, workers, DefaultMorselRows)
	sctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	fw := newFetchWindow(sctx, src, sp, morsels, len(rowCounts), workers, st)
	defer fw.close()
	runMorsels(sctx, morsels, workers, func(w int, m morsel) {
		sc := getScanScratch(len(accesses), sp.preds)
		cnt := scanCounters{ScanCounts: obs.ScanCounts{Morsels: 1}, tenant: tenant}
		defer sc.finish(&cnt, st)
		defer func() {
			if r := recover(); r != nil {
				f, ok := r.(scanFault)
				if !ok {
					panic(r)
				}
				stop(f.err)
			}
		}()
		for ti := m.lo; ti < m.hi; ti++ {
			t := src.openScanTile(ti, &cnt)
			if sp.skippable(t) {
				cnt.TilesSkipped++
				continue
			}
			cnt.TilesScanned++
			fw.claim(ti)
			cnt.RowsScanned += int64(t.NumRows())
			if !sc.fillBatch(t, sp, &cnt) {
				continue
			}
			cnt.Batches++
			sc.batch.Base = offs[ti]
			emit(w, &sc.batch)
		}
	})
	if err := context.Cause(sctx); err != nil && ctx.Err() == nil {
		st.Fail(err)
		return err
	}
	return nil
}

// fillBatch materializes tile t's accesses into sc.batch, narrowing as
// it goes. The narrowing accesses are planned first; those the plan
// fills as a vector (zero-copy, widened, all-NULL) fill at once and run
// their predicate over the live rows. Then each cell-by-cell narrowing
// access fills the rows still live and narrows them. Last every other
// access fills the rows left: a vector at once, a column cell by cell,
// and all those the documents serve in one walk per row (walkDocs). It
// reports false, planning nothing further, once no row is live.
func (sc *scanScratch) fillBatch(t scanTile, sp *scanPlan, cnt *scanCounters) (live bool) {
	n := t.NumRows()
	sc.batch.Len, sc.batch.Sel = n, nil
	allVec := true
	defer func() {
		kept := 0
		if live {
			kept = sc.batch.Rows()
		}
		cnt.RowsNarrowed += int64(n - kept)
		if allVec {
			cnt.RowsVectorized += int64(n)
		} else {
			cnt.RowsFallback += int64(n)
		}
	}()
	for ai, p := range sp.preds {
		if p == nil {
			continue
		}
		plan := sp.plan(t, ai)
		sc.plans[ai] = plan
		if !plan.vector() {
			allVec = false
			continue
		}
		sc.fillVector(t, ai, sp.accesses[ai].Type, plan, cnt)
		if !sc.narrow(p) {
			return false
		}
	}
	for ai, p := range sp.preds {
		if p == nil || sc.plans[ai].vector() {
			continue
		}
		sc.fillCells(t, ai, sp.accesses[ai], sc.plans[ai], cnt)
		if !sc.narrow(p) {
			return false
		}
	}
	walk := false
	for ai, p := range sp.preds {
		if p != nil {
			continue
		}
		plan := sp.plan(t, ai)
		sc.plans[ai] = plan
		switch {
		case plan.vector():
			sc.fillVector(t, ai, sp.accesses[ai].Type, plan, cnt)
		case plan.serve == serveDoc:
			allVec, walk = false, true
			sc.cells[ai].Reset(sp.accesses[ai].Type, n)
		default:
			allVec = false
			sc.fillCells(t, ai, sp.accesses[ai], plan, cnt)
		}
	}
	if walk {
		sc.walkDocs(t, sp, cnt)
		for ai, p := range sp.preds {
			if p == nil && sc.plans[ai].serve == serveDoc {
				sc.batch.Cols[ai] = *sc.cells[ai].Vector()
			}
		}
	}
	return n > 0
}

// walkDocs fills, for every live row, the accesses the stage above
// planned serveDoc, reading the row's document once (docWalk). Each
// such cell counts one JSONB fallback, as a looked-up cell does.
func (sc *scanScratch) walkDocs(t scanTile, sp *scanPlan, cnt *scanCounters) {
	w := &sc.walk
	if !w.activate(&sp.paths, sc.plans, sp.accesses, sc.cells) {
		return
	}
	rows := sc.batch.Selected()
	for _, i := range rows {
		w.row(t, int(i), cnt)
	}
	cnt.DocWalks += int64(len(rows))
	cnt.JSONBFallbacks += int64(len(rows) * len(w.cells))
}

// narrow keeps the live rows p selects; false once none is left. The
// selection lives in the predicates' scratch: the next narrow writes
// the smaller one over it, as kernels may.
func (sc *scanScratch) narrow(p *vec.CompiledPred) bool {
	obs.KernelDispatches.Inc()
	out := p.Sel(&sc.batch, sc.ps)
	if len(out) < sc.batch.Rows() {
		sc.batch.Sel = out
	}
	return len(out) > 0
}

// fillVector sets access ai's vector as a vector plan says: all NULL,
// the column itself, or the column widened to Float.
func (sc *scanScratch) fillVector(t scanTile, ai int, typ expr.SQLType, p accessPlan, cnt *scanCounters) {
	n := sc.batch.Len
	if p.serve == serveNull {
		sc.batch.Cols[ai] = vec.NullVector(typ)
		return
	}
	col := t.Column(p.col).Col
	cnt.ColumnHits += int64(n)
	if p.serve == serveZero {
		sc.batch.Cols[ai] = col.Vector
		return
	}
	sc.batch.Cols[ai] = *sc.cells[ai].Widen(col.Ints[:n], col.Nulls)
}

// fillCells reads access a cell by cell for the live rows, into the
// typed vector of slot ai (boxed for ::JSON alone).
func (sc *scanScratch) fillCells(t scanTile, ai int, a Access, p accessPlan, cnt *scanCounters) {
	w := &sc.cells[ai]
	w.Reset(a.Type, sc.batch.Len)
	var col *vec.Vector
	if p.readsColumn() {
		col = &t.Column(p.col).Col.Vector
	}
	var docs docRows
	for _, i := range sc.batch.Selected() {
		p.put(w, int(i), t, &docs, col, int(i), a, cnt)
	}
	sc.batch.Cols[ai] = *w.Vector()
}
