package storage

import (
	"context"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/tile"
	"repro/internal/vec"
)

// The scan core: the one tile scan loop shared by the in-memory tiles
// relation and the disk-backed segment relation, and the adapter that
// serves their row scans from it. Both formats present their tiles
// through the scanTile view, so skip decisions, per-tile access
// resolution (§4.5), and the column-hit vs binary-JSON-fallback split
// behave identically — a query over a reopened segment returns
// byte-identical results to the in-memory path, with lazy block I/O as
// the only difference.

// scanTile is one tile as the scan loop sees it. *tile.Tile satisfies
// it directly; the segment relation implements it with a lazy view
// that fetches column and document blocks through the buffer pool on
// first access, so unaccessed columns and skipped tiles cost no I/O.
type scanTile interface {
	NumRows() int
	// MayContainPath must answer from tile metadata alone (skip
	// decisions happen before any data access).
	MayContainPath(path string) bool
	ColumnsForPath(path string) []int
	// Column may perform lazy I/O; it is only called for columns whose
	// path some access resolved to.
	Column(idx int) *tile.ColumnInfo
	// Raw may lazily load the tile's fallback documents.
	Raw(i int) jsonb.Doc
}

var _ scanTile = (*tile.Tile)(nil)

// scanSource is a relation the scan core can drive: a tile count and
// a per-scan view of each tile. openScanTile receives the worker's
// counter block so lazily loading views can account block I/O.
type scanSource interface {
	numScanTiles() int
	openScanTile(ti int, cnt *scanCounters) scanTile
	scanConfig() scanConfig
}

type scanConfig struct {
	skipTiles bool
	maxSlots  int
}

// mayContainTile answers MayContainPath with the capped-slot
// correction: paths indexing an array slot at or beyond the
// collection cap are invisible to tile headers, so only their prefix
// (the array itself) can be consulted.
func mayContainTile(t scanTile, a Access, maxSlots int) bool {
	if prefix, capped := cappedPrefix(a.Path, maxSlots); capped {
		return t.MayContainPath(prefix)
	}
	return t.MayContainPath(a.PathEnc)
}

// skippableTile reports whether the tile provably contains no tuple
// that can satisfy the query: some null-rejecting access targets a
// path absent from the whole tile (§4.8). Metadata-only.
func skippableTile(t scanTile, accesses []Access, maxSlots int) bool {
	for _, a := range accesses {
		if a.NullRejecting && !mayContainTile(t, a, maxSlots) {
			return true
		}
	}
	return false
}

// resolveTileAccess computes how the tile serves one access (§4.5),
// once per tile, reused for every tuple.
func resolveTileAccess(t scanTile, a Access, maxSlots int) colResolver {
	if a.Type == expr.TJSON {
		// The -> operator returns documents; serve from binary JSON.
		if !mayContainTile(t, a, maxSlots) {
			return colResolver{mode: modeNullAll}
		}
		return colResolver{mode: modeFallback}
	}
	if _, capped := cappedPrefix(a.Path, maxSlots); capped {
		if !mayContainTile(t, a, maxSlots) {
			return colResolver{mode: modeNullAll}
		}
		return colResolver{mode: modeFallback}
	}
	cols := t.ColumnsForPath(a.PathEnc)
	// Prefer a column that serves the type directly; fall back to any
	// column, then to the document.
	var fallbackish *colResolver
	for _, ci := range cols {
		info := t.Column(ci)
		rv := resolveColumn(info.Col, info.StorageType, info.HasTypeOutliers, a.Type)
		if rv.mode == modeColumn {
			// A column serves directly, but other same-path columns
			// (different mined type) would hold the remaining values;
			// with >1 columns stay safe and fall back on null.
			if len(cols) > 1 {
				rv.fallbackOnNull = true
			}
			return rv
		}
		f := rv
		fallbackish = &f
	}
	if fallbackish != nil {
		return *fallbackish
	}
	if !mayContainTile(t, a, maxSlots) {
		return colResolver{mode: modeNullAll}
	}
	return colResolver{mode: modeFallback}
}

// resolveTileAccessBatch decides how an access is served in batch
// form (see tiles_batch.go for the vector kinds).
func resolveTileAccessBatch(t scanTile, a Access, maxSlots int) batchResolver {
	rv := resolveTileAccess(t, a, maxSlots)
	switch rv.mode {
	case modeNullAll:
		return batchResolver{kind: vkNullAll}
	case modeColumn:
		if !rv.fallbackOnNull {
			switch rv.col.Type() {
			case keypath.TypeBigInt:
				switch a.Type {
				case expr.TBigInt:
					return batchResolver{kind: vkZero, col: rv.col}
				case expr.TFloat:
					return batchResolver{kind: vkIntToFloat, col: rv.col}
				}
			case keypath.TypeDouble:
				if a.Type == expr.TFloat {
					return batchResolver{kind: vkZero, col: rv.col}
				}
			case keypath.TypeString:
				if a.Type == expr.TText {
					return batchResolver{kind: vkZero, col: rv.col}
				}
			case keypath.TypeBool:
				if a.Type == expr.TBool {
					return batchResolver{kind: vkZero, col: rv.col}
				}
			case keypath.TypeTimestamp:
				if a.Type == expr.TTimestamp {
					return batchResolver{kind: vkZero, col: rv.col}
				}
			}
		}
	}
	return batchResolver{kind: vkBoxed, row: rv}
}

// scanRows is the row scan (StatsScanner) of a tile-backed relation:
// it runs the relation's batch scan and boxes each selected row of
// each batch into the worker's row buffer. Rows the batch core narrows
// away, NULL in a NullRejecting access, are therefore not emitted.
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

// scanBatchesCore is the shared tile scan loop: one batch per
// surviving tile (§4.8 skipping, §4.5 per-tile resolution, §4.5/§5
// column-hit vs fallback split, and the batch/vectorized-row split).
//
// Accesses flagged NullRejecting narrow the batch — tile skipping's
// contract applied per row: a row NULL in one of them cannot reach the
// result, so it is left out of the batch's selection and its remaining
// boxed cells are never materialized (on a tile mixing document types,
// one document lookup per row of the wrong type instead of k). Batches
// arrive with Sel != nil whenever a row was dropped; a tile with no
// live row emits nothing.
func scanBatchesCore(ctx context.Context, src scanSource, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	cfg := src.scanConfig()
	nTiles := src.numScanTiles()
	if nTiles == 0 {
		return
	}
	tenant := obs.TenantFrom(ctx)
	// Global row id of each tile's first row (Base of its batch).
	// Row counts come from metadata, so this loop performs no I/O.
	offs := make([]int64, nTiles)
	rowCounts := make([]int, nTiles)
	var run int64
	head := scanCounters{tenant: tenant}
	for i := 0; i < nTiles; i++ {
		offs[i] = run
		rowCounts[i] = src.openScanTile(i, &head).NumRows()
		run += int64(rowCounts[i])
	}
	head.flush(st)
	// Slots in resolution order: null-rejecting ones first.
	order := make([]int, 0, len(accesses))
	for ai := range accesses {
		if accesses[ai].NullRejecting {
			order = append(order, ai)
		}
	}
	nRej := len(order)
	for ai := range accesses {
		if !accesses[ai].NullRejecting {
			order = append(order, ai)
		}
	}
	morsels := buildTileMorsels(rowCounts, workers, DefaultMorselRows)
	fw := newFetchWindow(ctx, src, accesses, morsels, workers, st)
	defer fw.close()
	runMorsels(ctx, morsels, workers, func(w int, m morsel) {
		sc := getScanScratch(len(accesses))
		defer putScanScratch(sc)
		cnt := scanCounters{morsels: 1, tenant: tenant}
		defer cnt.flush(st)
		for ti := m.lo; ti < m.hi; ti++ {
			t := src.openScanTile(ti, &cnt)
			if cfg.skipTiles && skippableTile(t, accesses, cfg.maxSlots) {
				cnt.tilesSkipped++
				continue
			}
			cnt.tilesScanned++
			fw.claim(ti)
			cnt.rows += int64(t.NumRows())
			if !sc.fillBatch(t, accesses, order, nRej, cfg.maxSlots, &cnt) {
				continue
			}
			cnt.batches++
			sc.batch.Base = offs[ti]
			emit(w, &sc.batch)
		}
	})
}

// fillBatch materializes tile t's accesses into sc.batch, resolving
// order[:nRej] (the null-rejecting slots) first: typed columns mark
// their NULL rows dead word-wise, boxed ones row by row, and every
// access after that touches only rows still live. It reports false,
// resolving nothing further, once no row is live.
func (sc *scanScratch) fillBatch(t scanTile, accesses []Access, order []int, nRej, maxSlots int, cnt *scanCounters) bool {
	n := t.NumRows()
	dead := sc.dead[:0]
	for i := 0; i < (n+63)>>6; i++ {
		dead = append(dead, 0)
	}
	sc.dead = dead
	isDead := func(i int) bool { return dead[i>>6]&(1<<(uint(i)&63)) != 0 }
	narrowed, allVec := false, true
	defer func() {
		if allVec {
			cnt.rowsVec += int64(n)
		} else {
			cnt.rowsFallback += int64(n)
		}
	}()
	// The typed columns of the null-rejecting prefix go before its boxed
	// accesses, so those look at as few rows as possible.
	for _, ai := range order[:nRej] {
		br := resolveTileAccessBatch(t, accesses[ai], maxSlots)
		sc.bres[ai] = br
		switch br.kind {
		case vkNullAll:
			return false
		case vkZero, vkIntToFloat:
			for w, nulls := range br.col.NullBits() {
				dead[w] |= nulls
				narrowed = narrowed || nulls != 0
			}
		}
	}
	for k, ai := range order {
		a, rejecting := accesses[ai], k < nRej
		if !rejecting {
			sc.bres[ai] = resolveTileAccessBatch(t, a, maxSlots)
		}
		br := sc.bres[ai]
		switch br.kind {
		case vkZero:
			sc.batch.Cols[ai] = zeroVec(br.col, a.Type)
			cnt.hits += int64(n)
		case vkIntToFloat:
			buf := sc.fbuf[ai]
			if cap(buf) < n {
				buf = make([]float64, n)
			}
			buf = buf[:n]
			for i, v := range br.col.IntSlice()[:n] {
				buf[i] = float64(v)
			}
			sc.fbuf[ai] = buf
			sc.batch.Cols[ai] = vec.Vector{Type: expr.TFloat, Floats: buf, Nulls: br.col.NullBits()}
			cnt.hits += int64(n)
		case vkNullAll:
			sc.batch.Cols[ai] = vec.NullVector(a.Type, n)
		default: // boxed: row-at-a-time materialization of the live rows
			allVec = false
			// len only grows: putScanScratch clears what was written.
			vals := sc.boxed[ai]
			if cap(vals) < n {
				vals = make([]expr.Value, n)
			} else if len(vals) < n {
				vals = vals[:n]
			}
			sc.boxed[ai] = vals
			live := 0
			for i := 0; i < n; i++ {
				if narrowed && isDead(i) {
					continue
				}
				v, needDoc, castErr := br.row.read(i)
				if needDoc {
					cnt.fallbacks++
					v = docAccess(t.Raw(i), a.Path, a.Type)
				} else if br.row.mode == modeColumn {
					cnt.hits++
				}
				if castErr {
					cnt.castErrs++
				}
				vals[i] = v
				if rejecting && v.Null {
					dead[i>>6] |= 1 << (uint(i) & 63)
					narrowed = true
				} else {
					live++
				}
			}
			if live == 0 {
				return false
			}
			sc.batch.Cols[ai] = vec.Vector{Type: a.Type, Boxed: vals[:n]}
		}
	}
	sc.batch.Len, sc.batch.Sel = n, nil
	if narrowed {
		sel := sc.sel[:0]
		for w, d := range dead {
			live := ^d
			if rem := n - w<<6; rem < 64 {
				live &= 1<<uint(rem) - 1
			}
			for ; live != 0; live &= live - 1 {
				sel = append(sel, int32(w<<6+bits.TrailingZeros64(live)))
			}
		}
		sc.sel, sc.batch.Sel = sel, sel
		return len(sel) > 0
	}
	return n > 0
}
