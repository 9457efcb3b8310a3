package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsongen"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vec"
)

// conformanceKinds are the formats checked against raw JSON.
var conformanceKinds = []storage.FormatKind{
	storage.KindJSONB, storage.KindSinew, storage.KindTiles, storage.KindShredded,
}

// loadKind loads lines in the given format. Tiles keep the input order
// (no reordering), so at one worker every format scans rows in the
// same order and float aggregates agree bit for bit.
func loadKind(t *testing.T, kind storage.FormatKind, lines [][]byte) storage.Relation {
	t.Helper()
	cfg := storage.DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	cfg.Reorder = false
	l, err := storage.NewLoader(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := l.Load("conf", lines, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// rowMultiset renders a result as a sorted multiset of row strings so
// two executions can be compared regardless of emit order. Container
// cells are re-serialized through the binary format: it does not keep
// input key order (§5), so raw-JSON and binary formats render the same
// object with its keys in different orders.
func rowMultiset(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		s := ""
		for c, v := range row {
			if c > 0 {
				s += "\x1f"
			}
			s += normalizeCell(v.String())
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func normalizeCell(s string) string {
	if len(s) == 0 || (s[0] != '{' && s[0] != '[') {
		return s
	}
	v, err := jsontext.ParseString(s)
	if err != nil {
		return s
	}
	return jsonb.NewDoc(jsonb.Encode(v)).JSON()
}

// reference is the oracle plan: an unfiltered scan of raw JSON under
// a Select, so that no narrowing in the scan under test is shared with
// it.
func reference(jsonRel storage.Relation, accs []storage.Access, filter expr.Expr) Operator {
	var op Operator = NewScan(jsonRel, accs, nil, nil)
	if filter != nil {
		op = NewSelect(op, filter)
	}
	return op
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchRowConformanceAllFormats is the input-equality property of
// the one operator path: for random documents, random accesses and
// several filter shapes, the same plan over each conformanceKinds
// format returns what a Select over an unfiltered scan of raw JSON
// returns, where every access is evaluated on a freshly parsed value
// tree: identical rows, and at one worker identical aggregate values,
// bit for bit.
func TestBatchRowConformanceAllFormats(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 6; trial++ {
		nDocs := 40 + r.Intn(80)
		lines := make([][]byte, nDocs)
		docs := make([]jsonvalue.Value, nDocs)
		for i := range lines {
			docs[i] = jsongen.RandomObject(r, 3)
			lines[i] = jsontext.Serialize(docs[i])
		}

		// Sample typed accesses from observed paths plus an absent one.
		var accesses []storage.Access
		seen := map[string]bool{}
		for _, d := range docs {
			keypath.Collect(d, 4, func(p keypath.Path, vt keypath.ValueType, v jsonvalue.Value) {
				enc := p.Encode()
				if seen[enc] || len(accesses) >= 5 {
					return
				}
				seen[enc] = true
				var st expr.SQLType
				switch vt {
				case keypath.TypeBigInt:
					st = expr.TBigInt
				case keypath.TypeDouble:
					st = expr.TFloat
				case keypath.TypeBool:
					st = expr.TBool
				default:
					st = expr.TText
				}
				accesses = append(accesses, storage.NewAccessPath(st, p))
			})
		}
		if len(accesses) == 0 {
			continue
		}
		accesses = append(accesses, storage.NewAccess(expr.TBigInt, "definitely", "absent"))

		// Filters: none, a comparison, an AND/OR tree, and a NOT (pushed
		// down to the leaves).
		col0 := expr.NewCol(0, accesses[0].Type)
		filters := []expr.Expr{
			nil,
			expr.NewIsNull(col0, true),
			expr.NewOr(expr.NewIsNull(col0, false),
				expr.NewIsNull(expr.NewCol(len(accesses)-1, expr.TBigInt), false)),
			expr.NewNot(expr.NewIsNull(col0, false)),
		}

		jsonRel := loadKind(t, storage.KindJSON, lines)
		for _, kind := range conformanceKinds {
			rel := loadKind(t, kind, lines)
			for fi, filter := range filters {
				for _, workers := range []int{1, 3} {
					// Accesses are shared state (NullRejecting flags), so
					// build fresh scans per run.
					res := Materialize(NewScan(rel, append([]storage.Access(nil), accesses...), nil, filter), workers)
					jsonRes := Materialize(reference(jsonRel, append([]storage.Access(nil), accesses...), filter), workers)
					if got, want := rowMultiset(res), rowMultiset(jsonRes); !sameRows(got, want) {
						t.Fatalf("trial %d %s filter %d workers %d: rows differ from raw JSON\n got: %v\nwant: %v",
							trial, kind, fi, workers, got, want)
					}
				}

				// Global aggregates: workers=1 fixes accumulation order so
				// even float sums must match exactly.
				aggs := []AggSpec{
					{Func: CountStar, Name: "n"},
					{Func: Count, Arg: col0, Name: "c"},
					{Func: Sum, Arg: col0, Name: "s"},
					{Func: Avg, Arg: col0, Name: "a"},
					{Func: Min, Arg: col0, Name: "lo"},
					{Func: Max, Arg: col0, Name: "hi"},
				}
				agg := Materialize(NewGroupBy(
					NewScan(rel, append([]storage.Access(nil), accesses...), nil, filter), nil, nil, aggs), 1)
				jsonAgg := Materialize(NewGroupBy(
					reference(jsonRel, append([]storage.Access(nil), accesses...), filter), nil, nil, aggs), 1)
				if got, want := rowMultiset(agg), rowMultiset(jsonAgg); !sameRows(got, want) {
					t.Fatalf("trial %d %s filter %d: aggregates differ from raw JSON\n got: %v\nwant: %v",
						trial, kind, fi, got, want)
				}
			}
		}
	}
}

// TestBatchMixedFastPathAndFallbackTiles pins the split accounting: a
// collection whose first tiles serve an access from an extracted int
// column while later tiles hold strings under the same key must
// produce both vectorized and fallback rows — and still agree with
// raw JSON.
func TestBatchMixedFastPathAndFallbackTiles(t *testing.T) {
	var lines [][]byte
	for i := 0; i < 32; i++ {
		lines = append(lines, []byte(fmt.Sprintf(`{"v":%d,"w":%d}`, i, i*2)))
	}
	for i := 32; i < 64; i++ {
		lines = append(lines, []byte(fmt.Sprintf(`{"v":"s%d","w":%d}`, i, i*2)))
	}
	rel := loadKind(t, storage.KindTiles, lines)
	accesses := []storage.Access{
		storage.NewAccess(expr.TBigInt, "v"),
		storage.NewAccess(expr.TBigInt, "w"),
	}
	filter := expr.NewCmp(expr.GE, expr.NewCol(1, expr.TBigInt), expr.NewConst(expr.IntValue(20)))

	scan := NewScan(rel, append([]storage.Access(nil), accesses...), nil, filter)
	st := &obs.ScanStats{}
	scan.Stats = st
	vecRes := Materialize(scan, 2)
	jsonRes := Materialize(NewScan(loadKind(t, storage.KindJSON, lines),
		append([]storage.Access(nil), accesses...), nil, filter), 2)
	if got, want := rowMultiset(vecRes), rowMultiset(jsonRes); !sameRows(got, want) {
		t.Fatalf("mixed tiles: %v, raw JSON %v", got, want)
	}
	c := st.Counts()
	if c.Batches == 0 {
		t.Error("no batches recorded")
	}
	if c.RowsVectorized == 0 {
		t.Errorf("no vectorized rows (int tiles should fast-path); stats %+v", c)
	}
	if c.RowsFallback == 0 {
		t.Errorf("no fallback rows (string tiles must materialize); stats %+v", c)
	}
	if c.RowsVectorized+c.RowsFallback != c.RowsScanned {
		t.Errorf("vec(%d)+fallback(%d) != scanned(%d)", c.RowsVectorized, c.RowsFallback, c.RowsScanned)
	}
}

// TestBatchAggregateUsesVectorizedPath asserts the all-vectorized
// pipeline end to end: WhereCmp + global aggregate over an extracted
// int column dispatches kernels and never takes the batch fallback.
func TestBatchAggregateUsesVectorizedPath(t *testing.T) {
	var lines [][]byte
	for i := 0; i < 64; i++ {
		lines = append(lines, []byte(fmt.Sprintf(`{"a":%d,"b":%d.5}`, i, i)))
	}
	rel := loadKind(t, storage.KindTiles, lines)
	accesses := []storage.Access{
		storage.NewAccess(expr.TBigInt, "a"),
		storage.NewAccess(expr.TFloat, "b"),
	}
	filter := expr.NewCmp(expr.LT, expr.NewCol(0, expr.TBigInt), expr.NewConst(expr.IntValue(40)))
	scan := NewScan(rel, accesses, nil, filter)
	st := &obs.ScanStats{}
	scan.Stats = st
	base := obs.KernelDispatches.Load()
	gb := NewGroupBy(scan, nil, nil, []AggSpec{
		{Func: CountStar, Name: "n"},
		{Func: Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "sa"},
		{Func: Sum, Arg: expr.NewCol(1, expr.TFloat), Name: "sb"},
	})
	res := Materialize(gb, 2)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// sum(a) for a in [0,40) = 780; sum(b) = 780 + 40*0.5 = 800.
	if res.Rows[0][0].I != 40 || res.Rows[0][1].I != 780 || res.Rows[0][2].F != 800 {
		t.Errorf("agg row = %v", res.Rows[0])
	}
	if st.Counts().RowsFallback != 0 {
		t.Errorf("expected pure fast path, got %d fallback rows", st.Counts().RowsFallback)
	}
	if st.Counts().RowsVectorized == 0 {
		t.Error("no vectorized rows")
	}
	if obs.KernelDispatches.Load() == base {
		t.Error("no kernel dispatches recorded")
	}
}

// TestBatchProjectPermutation covers the vector-permutation
// projection staying on the batch path.
func TestBatchProjectPermutation(t *testing.T) {
	var lines [][]byte
	for i := 0; i < 48; i++ {
		lines = append(lines, []byte(fmt.Sprintf(`{"a":%d,"b":%d}`, i, 100+i)))
	}
	rel := loadKind(t, storage.KindTiles, lines)
	scan := NewScan(rel, []storage.Access{
		storage.NewAccess(expr.TBigInt, "a"),
		storage.NewAccess(expr.TBigInt, "b"),
	}, nil, nil)
	proj := NewProject(scan, []expr.Expr{
		expr.NewCol(1, expr.TBigInt), expr.NewCol(0, expr.TBigInt),
	}, []string{"b", "a"})
	res := Materialize(proj, 2)
	res.SortRows()
	if len(res.Rows) != 48 || res.Rows[0][0].I != 100 || res.Rows[0][1].I != 0 {
		t.Errorf("projected rows wrong: %v", res.Rows[0])
	}

	// An expression projection evaluates into a typed vector.
	proj2 := NewProject(scan, []expr.Expr{
		expr.NewArith(expr.Add, expr.NewCol(0, expr.TBigInt), expr.NewConst(expr.IntValue(1))),
	}, []string{"a1"})
	typed := true
	proj2.RunBatches(1, func(_ int, b *vec.Batch) { typed = typed && b.Cols[0].Ints != nil })
	res2 := Materialize(proj2, 2)
	res2.SortRows()
	if !typed || len(res2.Rows) != 48 || res2.Rows[0][0].I != 1 || res2.Rows[47][0].I != 48 {
		t.Errorf("expression projection: typed=%v rows=%d", typed, len(res2.Rows))
	}
}

// TestSelectBatchPath covers Select over a batch-capable input with a
// compilable predicate.
func TestSelectBatchPath(t *testing.T) {
	var lines [][]byte
	for i := 0; i < 40; i++ {
		lines = append(lines, []byte(fmt.Sprintf(`{"a":%d}`, i)))
	}
	rel := loadKind(t, storage.KindTiles, lines)
	scan := NewScan(rel, []storage.Access{storage.NewAccess(expr.TBigInt, "a")}, nil, nil)
	sel := NewSelect(scan, expr.NewCmp(expr.GE, expr.NewCol(0, expr.TBigInt), expr.NewConst(expr.IntValue(30))))
	if n := CountRows(sel, 2); n != 10 {
		t.Errorf("CountRows = %d", n)
	}
}
