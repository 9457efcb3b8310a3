// Cross-worker conformance for the partitioned parallel aggregation
// and top-K paths: the exact same (sorted) results must come out for
// every worker count, including DISTINCT aggregates, NULL group keys,
// empty inputs, the dictionary batch path, and bounded sorts.
package engine

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
)

var aggWorkers = []int{1, 2, 3, 8}

// resultRows renders a materialized result's rows, sorted, so results
// from different worker counts compare as multisets-with-order for
// sorted operators and as sets otherwise.
func resultRows(res *Result, sorted bool) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := ""
		for _, v := range r {
			s += v.String() + "\x1f"
		}
		rows[i] = s
	}
	if !sorted {
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
	}
	return rows
}

func sameRowLists(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// skewRel loads rows whose group column is heavily skewed (half the
// rows share one group) with occasional NULL keys — the shape that
// stresses both morsel scheduling and partition balance.
func skewRel(t *testing.T, n int) storage.Relation {
	t.Helper()
	srcs := make([]string, n)
	for i := 0; i < n; i++ {
		switch {
		case i%13 == 7: // NULL group key
			srcs[i] = fmt.Sprintf(`{"id":%d,"v":%d}`, i, i%10)
		case i%2 == 0: // skew: every even row lands in g-hot
			srcs[i] = fmt.Sprintf(`{"id":%d,"g":"g-hot","v":%d}`, i, i%10)
		default:
			srcs[i] = fmt.Sprintf(`{"id":%d,"g":"g-%d","v":%d}`, i, i%17, i%10)
		}
	}
	return rel(t, srcs...)
}

func skewGroupBy(r storage.Relation) *GroupBy {
	g := storage.NewAccess(expr.TText, "g")
	v := storage.NewAccess(expr.TBigInt, "v")
	id := storage.NewAccess(expr.TBigInt, "id")
	scan := scanAll(r, nil, g, v, id)
	vCol := expr.NewCol(1, expr.TBigInt)
	return NewGroupBy(scan,
		[]expr.Expr{expr.NewCol(0, expr.TText)}, []string{"g"},
		[]AggSpec{
			{Func: CountStar, Name: "n"},
			{Func: Sum, Arg: vCol, Name: "s"},
			{Func: Min, Arg: vCol, Name: "lo"},
			{Func: Max, Arg: vCol, Name: "hi"},
			{Func: Avg, Arg: vCol, Name: "avg"},
			{Func: Count, Arg: vCol, Name: "cv", Distinct: true},
			{Func: Count, Arg: expr.NewCol(2, expr.TBigInt), Name: "cid"},
		})
}

// TestGroupByConformanceAcrossWorkers: the partitioned aggregation
// emits byte-identical sorted output for every worker
// count, including DISTINCT and NULL keys, and records the partition
// fan-out.
func TestGroupByConformanceAcrossWorkers(t *testing.T) {
	r := skewRel(t, 500)
	gb := skewGroupBy(r)
	want := resultRows(Materialize(gb, 1), true)
	if p := gb.Partitions(); p != 1 {
		t.Fatalf("serial run recorded %d partitions, want 1", p)
	}
	if len(want) < 10 {
		t.Fatalf("only %d groups in fixture", len(want))
	}
	for _, w := range aggWorkers[1:] {
		got := resultRows(Materialize(gb, w), true)
		sameRowLists(t, fmt.Sprintf("workers=%d", w), got, want)
		if p := gb.Partitions(); p < int64(2*w) {
			t.Fatalf("workers=%d recorded %d partitions, want >= %d", w, p, 2*w)
		}
	}
}

// TestGlobalAggConformanceAcrossWorkers covers the keyless path
// (serial merge by design) and the empty-input single-row guarantee.
func TestGlobalAggConformanceAcrossWorkers(t *testing.T) {
	r := skewRel(t, 300)
	v := storage.NewAccess(expr.TBigInt, "v")
	mk := func(rel storage.Relation) *GroupBy {
		return NewGroupBy(scanAll(rel, nil, v), nil, nil, []AggSpec{
			{Func: CountStar, Name: "n"},
			{Func: Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "s"},
			{Func: Count, Arg: expr.NewCol(0, expr.TBigInt), Name: "d", Distinct: true},
		})
	}
	want := resultRows(Materialize(mk(r), 1), true)
	for _, w := range aggWorkers[1:] {
		sameRowLists(t, fmt.Sprintf("global workers=%d", w), resultRows(Materialize(mk(r), w), true), want)
	}

	// Empty input: exactly one row (COUNT 0, SUM NULL) at any width.
	empty := rel(t, `{"v":1}`)
	never := expr.NewCmp(expr.LT, expr.NewCol(0, expr.TBigInt), expr.NewConst(expr.IntValue(-100)))
	for _, w := range aggWorkers {
		gb := NewGroupBy(scanAll(empty, never, v), nil, nil, []AggSpec{
			{Func: CountStar, Name: "n"},
			{Func: Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "s"},
		})
		res := Materialize(gb, w)
		if len(res.Rows) != 1 {
			t.Fatalf("empty input workers=%d: %d rows, want 1", w, len(res.Rows))
		}
		if res.Rows[0][0].String() != "0" || !res.Rows[0][1].Null {
			t.Fatalf("empty input workers=%d: row = %v", w, res.Rows[0])
		}
	}

	// Grouped empty input: zero rows at any width.
	for _, w := range aggWorkers {
		gb := NewGroupBy(scanAll(empty, never, v),
			[]expr.Expr{expr.NewCol(0, expr.TBigInt)}, []string{"v"},
			[]AggSpec{{Func: CountStar, Name: "n"}})
		if res := Materialize(gb, w); len(res.Rows) != 0 {
			t.Fatalf("grouped empty workers=%d: %d rows, want 0", w, len(res.Rows))
		}
	}
}

// TestBatchGroupByConformanceAcrossWorkers drives the dictionary-code
// grouping (tiles input, low-cardinality text key) and checks it
// against a row-fed input at every worker count.
func TestBatchGroupByConformanceAcrossWorkers(t *testing.T) {
	n := 600
	lines := make([][]byte, n)
	for i := 0; i < n; i++ {
		if i%19 == 3 { // NULL key rows
			lines[i] = []byte(fmt.Sprintf(`{"id":%d,"v":%d}`, i, i%7))
		} else {
			lines[i] = []byte(fmt.Sprintf(`{"id":%d,"lvl":"L%d","v":%d}`, i, i%5, i%7))
		}
	}
	cfg := storage.DefaultLoaderConfig()
	cfg.Tile.TileSize = 64
	l, err := storage.NewLoader(storage.KindTiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := l.Load("dict", lines, 2)
	if err != nil {
		t.Fatal(err)
	}
	jb := rel(t, func() []string {
		out := make([]string, n)
		for i, b := range lines {
			out[i] = string(b)
		}
		return out
	}()...)

	mk := func(r storage.Relation) *GroupBy {
		lvl := storage.NewAccess(expr.TText, "lvl")
		v := storage.NewAccess(expr.TBigInt, "v")
		return NewGroupBy(scanAll(r, nil, lvl, v),
			[]expr.Expr{expr.NewCol(0, expr.TText)}, []string{"lvl"},
			[]AggSpec{
				{Func: CountStar, Name: "n"},
				{Func: Sum, Arg: expr.NewCol(1, expr.TBigInt), Name: "s"},
				{Func: Max, Arg: expr.NewCol(1, expr.TBigInt), Name: "m"},
			})
	}
	want := resultRows(Materialize(mk(jb), 1), true)
	for _, w := range aggWorkers {
		base := obs.DictGroupByFastpath.Load()
		gb := mk(tiles)
		Materialize(gb, w)
		if n := gb.DictBatches(); n == 0 || obs.DictGroupByFastpath.Load()-base != n {
			t.Fatalf("workers=%d: %d batches grouped by code, the process series moved by %d",
				w, n, obs.DictGroupByFastpath.Load()-base)
		}
		sameRowLists(t, fmt.Sprintf("batch workers=%d", w), resultRows(Materialize(mk(tiles), w), true), want)
	}
}

// TestFilterDictShortcutsReachTheirSink: a filter over two slots stays
// above the relation's scan; its code-space kernels count into the
// scan's own statistics, and a Select forwards its count to the process
// series alone.
func TestFilterDictShortcutsReachTheirSink(t *testing.T) {
	lines := make([][]byte, 600)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"lvl":"L%d","v":%d}`, i%5, i%7))
	}
	cfg := storage.DefaultLoaderConfig()
	cfg.Tile.TileSize = 64
	l, err := storage.NewLoader(storage.KindTiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := l.Load("dict", lines, 2)
	if err != nil {
		t.Fatal(err)
	}
	lvl, v := storage.NewAccess(expr.TText, "lvl"), storage.NewAccess(expr.TBigInt, "v")
	pred := expr.NewOr(
		expr.NewCmp(expr.EQ, expr.NewCol(0, expr.TText), expr.NewConst(expr.TextValue("L1"))),
		expr.NewCmp(expr.EQ, expr.NewCol(1, expr.TBigInt), expr.NewConst(expr.IntValue(3))))
	for _, w := range aggWorkers {
		base := obs.DictKernelShortcuts.Load()
		scan := scanAll(tiles, pred, lvl, v)
		scan.Stats = &obs.ScanStats{}
		scanned := Materialize(scan, w)
		n := scan.Stats.Counts().DictKernelShortcuts
		if n == 0 || obs.DictKernelShortcuts.Load()-base != n {
			t.Fatalf("workers=%d: the scan counts %d shortcuts, the process series moved by %d",
				w, n, obs.DictKernelShortcuts.Load()-base)
		}
		base = obs.DictKernelShortcuts.Load()
		selected := Materialize(NewSelect(scanAll(tiles, nil, lvl, v), pred), w)
		if got := obs.DictKernelShortcuts.Load() - base; got != n {
			t.Fatalf("workers=%d: the Select moved the process series by %d, the scan's filter by %d", w, got, n)
		}
		sameRowLists(t, fmt.Sprintf("workers=%d", w), resultRows(selected, false), resultRows(scanned, false))
	}
}

// TestTopKConformanceAcrossWorkers: the per-worker-heap bounded sort
// returns the same top K on a total order at every worker count, and
// never more than K rows.
func TestTopKConformanceAcrossWorkers(t *testing.T) {
	r := skewRel(t, 400)
	id := storage.NewAccess(expr.TBigInt, "id")
	g := storage.NewAccess(expr.TText, "g")
	for _, k := range []int{1, 7, 50, 1000} {
		mk := func() *OrderBy {
			ob := NewOrderBy(scanAll(r, nil, id, g), OrderKey{E: expr.NewCol(0, expr.TBigInt), Desc: true})
			ob.Limit = k
			return ob
		}
		want := resultRows(Materialize(mk(), 1), true)
		wantLen := k
		if wantLen > 400 {
			wantLen = 400
		}
		if len(want) != wantLen {
			t.Fatalf("k=%d: serial top-K returned %d rows", k, len(want))
		}
		for _, w := range aggWorkers[1:] {
			sameRowLists(t, fmt.Sprintf("topk k=%d workers=%d", k, w), resultRows(Materialize(mk(), w), true), want)
		}
	}
}
