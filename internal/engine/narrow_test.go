// Differential tests of the scan core's narrowing: the tile scan drops
// the rows a NullRejecting access proves dead, or a conjunct on one
// access rules out, and skips their remaining boxed cells. The oracle
// is the same filter applied by a Select over an unfiltered, unflagged
// scan of raw JSON (storage.KindJSON), which evaluates every access on
// a freshly parsed value tree and shares no narrowing code with the
// tile scan. Same query, same answer.
package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/dates"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/storage"
)

// narrowDocs generates documents of `shapes` shapes in runs of random
// length, so that 32-row tiles come out pure, mixed with a dominant
// shape (its paths extracted, the others served from binary JSON) and
// mixed without one. Shapes share keys with different types (type
// outliers), one has an array longer than the slot cap, one lacks the
// join key. "t" is a date string in shape 0, so tiles of that shape
// mine it as a timestamp, and other text or a number elsewhere.
func narrowDocs(r *rand.Rand, n, shapes int) [][]byte {
	lines := make([][]byte, 0, n)
	for len(lines) < n {
		shape, run := r.Intn(shapes), 1+r.Intn(40)
		if r.Intn(3) == 0 {
			run = 1 + r.Intn(4)
		}
		for ; run > 0 && len(lines) < n; run-- {
			i := len(lines)
			var doc string
			switch shape {
			case 0:
				doc = fmt.Sprintf(`{"k":%d,"a":%d,"s":"s%d","o":{"x":%d},"arr":[1,2,3],"t":"2020-01-%02d 10:%02d:00"}`, i%17, i%7, i%5, i, 1+i%28, i%60)
				if i%11 == 0 {
					doc = fmt.Sprintf(`{"k":%d,"a":null,"s":%d,"o":{"x":%d}}`, i%17, i, i) // NULL a, s of another type
				}
			case 1:
				doc = fmt.Sprintf(`{"k":%d,"b":%g,"s":"t%d","t":"soon-%d"}`, i%17, float64(i%9)/4, i%3, i%4)
				if i%13 == 0 {
					doc = fmt.Sprintf(`{"k":"%d","b":"n/a","s":"t%d"}`, i%17, i%3) // k as numeric text, b not a number
				}
			case 2:
				doc = fmt.Sprintf(`{"k":%d,"a":"text-%d","c":%t,"arr":[0,1,2,3,4,5,6,7,8,9,%d,11]}`, i%17, i%4, i%2 == 0, i)
			default:
				doc = fmt.Sprintf(`{"d":%d,"o":{"x":"%d","y":[%d]},"b":%d,"t":%d}`, i, i, i, i%6, i) // no k; b and t integers
			}
			lines = append(lines, []byte(doc))
		}
	}
	return lines
}

func narrowAccesses() []storage.Access {
	return []storage.Access{
		storage.NewAccess(expr.TBigInt, "k"),
		storage.NewAccess(expr.TBigInt, "a"),
		storage.NewAccess(expr.TText, "s"),
		storage.NewAccess(expr.TFloat, "b"),
		storage.NewAccessPath(expr.TBigInt, keypath.NewPath("arr").Slot(10)), // beyond the slot cap
		storage.NewAccess(expr.TJSON, "o"),
	}
}

// narrowRelations loads the same documents as in-memory tiles, as a
// one-segment DirTable, and as a multi-segment DirTable.
func narrowRelations(t *testing.T, lines [][]byte) map[string]storage.Relation {
	t.Helper()
	cfg := storage.DefaultLoaderConfig()
	cfg.Tile.TileSize = 32
	load := func(part [][]byte) storage.Relation {
		l, _ := storage.NewLoader(storage.KindTiles, cfg)
		rel, err := l.Load("narrow", part, 2)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	mem := load(lines)
	var parts []storage.Relation
	for lo := 0; lo < len(lines); lo += 150 {
		parts = append(parts, load(lines[lo:min(lo+150, len(lines))]))
	}
	return map[string]storage.Relation{"tiles": mem, "segment": memDir(t, cfg, mem), "dirtable": memDir(t, cfg, parts...)}
}

// memDir opens a DirTable on a fresh in-memory store and appends each
// tile-backed relation to it as one segment; it closes with the test.
func memDir(t *testing.T, cfg storage.LoaderConfig, rels ...storage.Relation) *storage.DirTable {
	t.Helper()
	dt, err := storage.OpenDirStore(rels[0].Name(), blockstore.NewMem(), nil, cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dt.Close() })
	for _, rel := range rels {
		if err := dt.AppendTiles(rel.(storage.TileIntrospector).Tiles(), rel.Stats(), 2); err != nil {
			t.Fatal(err)
		}
	}
	return dt
}

type scanCounts struct{ rows, scanned, skipped, fallbacks, narrowed int64 }

func countsOf(st *obs.ScanStats) scanCounts {
	c := st.Counts()
	return scanCounts{c.RowsScanned, c.TilesScanned, c.TilesSkipped, c.JSONBFallbacks, c.RowsNarrowed}
}

// checkNarrowed runs a plan over rel at every worker count: each run
// must return want, count every tile of rel as scanned or skipped, and
// count exactly what the one-worker run counts, which it returns.
func checkNarrowed(t *testing.T, label string, rel storage.Relation, want []string, plan func() (Operator, *obs.ScanStats)) scanCounts {
	t.Helper()
	tiles := int64(rel.(storage.TileCounter).NumTiles())
	var serial scanCounts
	for _, workers := range []int{1, 2, 3, 8} {
		op, st := plan()
		if got := rowMultiset(Materialize(op, workers)); !sameRows(got, want) {
			t.Fatalf("%s, %d workers: %d rows, %d over raw JSON", label, workers, len(got), len(want))
		}
		got := countsOf(st)
		if got.scanned+got.skipped != tiles {
			t.Fatalf("%s, %d workers: %d tiles scanned + %d skipped, the relation has %d", label, workers, got.scanned, got.skipped, tiles)
		}
		if workers == 1 {
			serial = got
		} else if got != serial {
			t.Fatalf("%s: %d workers counted %+v, 1 worker %+v", label, workers, got, serial)
		}
	}
	return serial
}

func TestNullRejectionNarrowingMatchesJSON(t *testing.T) {
	col := func(i int) expr.Expr { return expr.NewCol(i, narrowAccesses()[i].Type) }
	gt := func(i int, v expr.Value) expr.Expr { return expr.NewCmp(expr.GT, col(i), expr.NewConst(v)) }
	filters := []struct {
		name string
		pred expr.Expr
	}{
		{"none", nil},
		{"a IS NOT NULL", expr.NewIsNull(col(1), true)},
		{"k > 5", gt(0, expr.IntValue(5))},
		{"a > 3 OR b > 0.5", expr.NewOr(gt(1, expr.IntValue(3)), gt(3, expr.FloatValue(0.5)))},
		{"a IS NULL", expr.NewIsNull(col(1), false)}, // narrows on its conjunct, never on a flag
	}
	// above is every flagged slot IS NOT NULL, or nil.
	above := func(flagged int) expr.Expr {
		var e expr.Expr
		for s := range narrowAccesses() {
			if flagged&(1<<s) != 0 {
				e = and(e, expr.NewIsNull(col(s), true))
			}
		}
		return e
	}
	// plan builds Scan(filter) → Select(above): the Select is the
	// operator above the scan that makes the flags true, which is the
	// contract MarkNullRejecting states. The flags belong to the plan
	// under test; the oracle is Select(filter AND above) over a plain
	// scan.
	plan := func(rel storage.Relation, pred expr.Expr, flagged int) (Operator, *obs.ScanStats) {
		scan := NewScan(rel, narrowAccesses(), nil, pred)
		scan.Stats = &obs.ScanStats{}
		var op Operator = scan
		for s := range scan.Accesses {
			if flagged&(1<<s) != 0 {
				scan.MarkNullRejecting(s)
			}
		}
		if a := above(flagged); a != nil {
			op = NewSelect(op, a)
		}
		return op, scan.Stats
	}

	for trial, shapes := range []int{2, 3, 4} {
		lines := narrowDocs(rand.New(rand.NewSource(int64(100+trial))), 420, shapes)
		jsonRel := loadKind(t, storage.KindJSON, lines)
		rels := narrowRelations(t, lines)
		for _, f := range filters {
			for flagged := 0; flagged < 1<<len(narrowAccesses()); flagged++ {
				want := rowMultiset(Materialize(reference(jsonRel, narrowAccesses(), and(f.pred, above(flagged))), 1))
				for relName, rel := range rels {
					label := fmt.Sprintf("%d shapes, %s, filter %s, flags %06b", shapes, relName, f.name, flagged)
					checkNarrowed(t, label, rel, want, func() (Operator, *obs.ScanStats) { return plan(rel, f.pred, flagged) })
				}
			}
		}
	}
}

// The optimizer flags both key slots of an inner join; the join is the
// operator that drops the NULL keys the scans no longer deliver.
func TestNullRejectionNarrowingUnderInnerJoin(t *testing.T) {
	lines := narrowDocs(rand.New(rand.NewSource(7)), 420, 4)
	plan := func(rel storage.Relation) (Operator, *obs.ScanStats) {
		build := NewScan(rel, []storage.Access{storage.NewAccess(expr.TBigInt, "a"), storage.NewAccess(expr.TText, "s")}, nil, nil)
		probe := NewScan(rel, narrowAccesses(), nil, nil)
		build.MarkNullRejecting(0)
		probe.MarkNullRejecting(0)
		probe.Stats = &obs.ScanStats{}
		return NewHashJoin(build, probe, []int{0}, []int{0}, InnerJoin), probe.Stats
	}
	oracle, _ := plan(loadKind(t, storage.KindJSON, lines))
	want := rowMultiset(Materialize(oracle, 1))
	if len(want) == 0 {
		t.Fatal("the join returns nothing: the test compares nothing")
	}
	for relName, rel := range narrowRelations(t, lines) {
		checkNarrowed(t, relName, rel, want, func() (Operator, *obs.ScanStats) { return plan(rel) })
	}
}

// conjunctAccesses extends narrowAccesses with two reads of "t": as
// text, which a timestamp column never serves (§4.9), so it always
// takes the document, and as a timestamp.
func conjunctAccesses() []storage.Access {
	return append(narrowAccesses(), storage.NewAccess(expr.TText, "t"), storage.NewAccess(expr.TTimestamp, "t"))
}

// TestConjunctNarrowingMatchesJSON runs filters whose conjuncts read
// one access each, which the scan core applies per tile, in every
// kernel shape, beside conjuncts it leaves to the residual filter (an
// OR across slots, arithmetic over two slots). The tiles serve some
// accesses from columns and the rest from binary JSON.
func TestConjunctNarrowingMatchesJSON(t *testing.T) {
	const k, a, s, b, arr, o, tText, tTime = 0, 1, 2, 3, 4, 5, 6, 7
	accs := conjunctAccesses()
	col := func(i int) expr.Expr { return expr.NewCol(i, accs[i].Type) }
	cmp := func(op expr.CmpOp, i int, v expr.Value) expr.Expr { return expr.NewCmp(op, col(i), expr.NewConst(v)) }
	isNull := func(i int) expr.Expr { return expr.NewIsNull(col(i), false) }
	notNull := func(i int) expr.Expr { return expr.NewIsNull(col(i), true) }
	and := func(es ...expr.Expr) expr.Expr {
		out := es[0]
		for _, e := range es[1:] {
			out = expr.NewAnd(out, e)
		}
		return out
	}
	i, f, txt := expr.IntValue, expr.FloatValue, expr.TextValue
	jan15, _ := dates.Parse("2020-01-15 00:00:00")
	filters := []struct {
		name string
		pred expr.Expr
	}{
		{"k IS NULL", isNull(k)},
		{"a IS NULL AND t::text IS NOT NULL", and(isNull(a), notNull(tText))},
		{"t::text IS NULL", isNull(tText)},
		{"k = 3", cmp(expr.EQ, k, i(3))},
		{"k <> 3 AND b < 1", and(cmp(expr.NE, k, i(3)), cmp(expr.LT, b, f(1)))},
		{"k <= 4 AND a >= 2", and(cmp(expr.LE, k, i(4)), cmp(expr.GE, a, i(2)))},
		{"b > 0.5", cmp(expr.GT, b, f(0.5))},
		{"t::timestamp >= 2020-01-15", cmp(expr.GE, tTime, expr.TimestampValue(jan15))},
		{"t::text > '2020-01-20'", cmp(expr.GT, tText, txt("2020-01-20"))},
		{"k IN (1, 2, 16)", expr.NewIn(col(k), i(1), i(2), i(16))},
		{"s IN ('s1', 't2', 'x')", expr.NewIn(col(s), txt("s1"), txt("t2"), txt("x"))},
		{"s LIKE 't%'", expr.NewLike(col(s), "t%")},
		{"t::text LIKE '%10:3%'", expr.NewLike(col(tText), "%10:3%")},
		{"NOT k > 5", expr.NewNot(cmp(expr.GT, k, i(5)))},
		{"NOT s LIKE 's%' AND NOT t::text IS NULL", and(expr.NewNot(expr.NewLike(col(s), "s%")), expr.NewNot(isNull(tText)))},
		{"(k < 3 OR k > 14) AND t::text IS NOT NULL", and(expr.NewOr(cmp(expr.LT, k, i(3)), cmp(expr.GT, k, i(14))), notNull(tText))},
		{"(s = 's1' OR s LIKE 't%') AND a IS NULL", and(expr.NewOr(cmp(expr.EQ, s, txt("s1")), expr.NewLike(col(s), "t%")), isNull(a))},
		{"a > 3 OR b > 0.5", expr.NewOr(cmp(expr.GT, a, i(3)), cmp(expr.GT, b, f(0.5)))},
		{"k + a > 10 AND t::text IS NOT NULL", and(expr.NewCmp(expr.GT, expr.NewArith(expr.Add, col(k), col(a)), expr.NewConst(i(10))), notNull(tText))},
		{"o IS NOT NULL AND arr[10] IS NULL AND k >= 0", and(notNull(o), isNull(arr), cmp(expr.GE, k, i(0)))},
		{"k = 3 AND k IS NULL", and(cmp(expr.EQ, k, i(3)), isNull(k))},
	}
	plan := func(rel storage.Relation, pred expr.Expr) (Operator, *obs.ScanStats) {
		scan := NewScan(rel, conjunctAccesses(), nil, pred)
		scan.Stats = &obs.ScanStats{}
		return scan, scan.Stats
	}
	timestampTiles, narrowed := 0, int64(0)
	for trial, shapes := range []int{2, 3, 4} {
		lines := narrowDocs(rand.New(rand.NewSource(int64(200+trial))), 420, shapes)
		jsonRel := loadKind(t, storage.KindJSON, lines)
		rels := narrowRelations(t, lines)
		for _, tl := range rels["tiles"].(storage.TileIntrospector).Tiles() {
			for _, ci := range tl.ColumnsForPath(accs[tText].PathEnc) {
				if tl.Column(ci).StorageType == keypath.TypeTimestamp {
					timestampTiles++
				}
			}
		}
		for _, fl := range filters {
			want := rowMultiset(Materialize(reference(jsonRel, conjunctAccesses(), fl.pred), 1))
			for relName, rel := range rels {
				label := fmt.Sprintf("%d shapes, %s, filter %s", shapes, relName, fl.name)
				c := checkNarrowed(t, label, rel, want, func() (Operator, *obs.ScanStats) { return plan(rel, fl.pred) })
				narrowed += c.narrowed
			}
		}
	}
	if timestampTiles == 0 || narrowed == 0 {
		t.Fatalf("%d tiles mine t as a timestamp, %d rows narrowed: the test does not cover what it says", timestampTiles, narrowed)
	}
}

// TestNewScanPushesSingleSlotConjuncts pins the split: each conjunct
// that reads one slot becomes that access's Filter, and only the others
// stay in the residual filter, so no conjunct runs twice over a tile
// scan.
func TestNewScanPushesSingleSlotConjuncts(t *testing.T) {
	accs := conjunctAccesses()
	c0 := expr.NewIsNull(expr.NewCol(0, accs[0].Type), false)
	c2 := expr.NewLike(expr.NewCol(2, accs[2].Type), "s%")
	c2b := expr.NewNot(expr.NewIsNull(expr.NewCol(2, accs[2].Type), false))
	multi := expr.NewOr(expr.NewIsNull(expr.NewCol(1, accs[1].Type), true), expr.NewIsNull(expr.NewCol(3, accs[3].Type), true))
	scan := NewScan(loadKind(t, storage.KindJSON, [][]byte{[]byte(`{}`)}), accs, nil,
		expr.NewAnd(expr.NewAnd(c0, multi), expr.NewAnd(c2, c2b)))
	if scan.Accesses[0].Filter != expr.Expr(c0) {
		t.Errorf("access 0 filter %v", scan.Accesses[0].Filter)
	}
	if want := expr.NewAnd(c2, c2b); !reflect.DeepEqual(scan.Accesses[2].Filter, expr.Expr(want)) {
		t.Errorf("access 2 filter %v", scan.Accesses[2].Filter)
	}
	for _, ai := range []int{1, 3, 4, 5, 6, 7} {
		if scan.Accesses[ai].Filter != nil {
			t.Errorf("access %d got filter %v", ai, scan.Accesses[ai].Filter)
		}
	}
	if scan.residual != expr.Expr(multi) {
		t.Errorf("residual %v, want the OR across slots alone", scan.residual)
	}
	if accs[0].Filter != nil || accs[2].Filter != nil {
		t.Error("NewScan wrote into the caller's accesses")
	}

	// Over tiles, each one-slot conjunct runs once per scanned tile in
	// the scan core and never again above it. Every document of the
	// first three shapes has k, so the first conjunct never empties a
	// tile and the second always runs.
	rel := loadKind(t, storage.KindTiles, narrowDocs(rand.New(rand.NewSource(3)), 200, 3))
	kNotNull := expr.NewIsNull(expr.NewCol(0, accs[0].Type), true)
	sAfter := expr.NewCmp(expr.GT, expr.NewCol(2, accs[2].Type), expr.NewConst(expr.TextValue("s")))
	scan = NewScan(rel, accs, nil, expr.NewAnd(kNotNull, sAfter))
	scan.Stats = &obs.ScanStats{}
	base := obs.KernelDispatches.Load()
	if CountRows(scan, 1) == 0 {
		t.Fatal("the filter keeps no row: nothing reaches a filter above the scan")
	}
	if got, scanned := obs.KernelDispatches.Load()-base, scan.Stats.Counts().TilesScanned; got != 2*scanned {
		t.Errorf("%d kernel dispatches over %d scanned tiles, want 2 per tile", got, scanned)
	}
}
