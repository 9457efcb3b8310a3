// Differential test of the scan core's null-rejection narrowing: the
// tile scan drops the rows a NullRejecting access proves dead and skips
// their remaining boxed cells. The oracle is the same plan over raw
// JSON (storage.KindJSON), which evaluates every access on a freshly
// parsed value tree and shares no code with the tile scan. Same plan,
// same answer.
package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
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
// join key.
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
				doc = fmt.Sprintf(`{"k":%d,"a":%d,"s":"s%d","o":{"x":%d},"arr":[1,2,3]}`, i%17, i%7, i%5, i)
				if i%11 == 0 {
					doc = fmt.Sprintf(`{"k":%d,"a":null,"s":%d,"o":{"x":%d}}`, i%17, i, i) // NULL a, s of another type
				}
			case 1:
				doc = fmt.Sprintf(`{"k":%d,"b":%g,"s":"t%d"}`, i%17, float64(i%9)/4, i%3)
				if i%13 == 0 {
					doc = fmt.Sprintf(`{"k":"%d","b":"n/a","s":"t%d"}`, i%17, i%3) // k as numeric text, b not a number
				}
			case 2:
				doc = fmt.Sprintf(`{"k":%d,"a":"text-%d","c":%t,"arr":[0,1,2,3,4,5,6,7,8,9,%d,11]}`, i%17, i%4, i%2 == 0, i)
			default:
				doc = fmt.Sprintf(`{"d":%d,"o":{"x":"%d","y":[%d]},"b":%d}`, i, i, i, i%6) // no k; b as an integer
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

// narrowRelations loads the same documents as in-memory tiles, as one
// segment file, and as a multi-segment DirTable.
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
	store := blockstore.NewMem()
	if err := storage.WriteSegmentStore(store, "narrow.seg", mem); err != nil {
		t.Fatal(err)
	}
	seg, err := storage.OpenSegmentStore("narrow", store, "narrow.seg", 0, bufpool.New(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	dir, err := storage.OpenDirStore("narrow", blockstore.NewMem(), bufpool.New(0), cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	for lo := 0; lo < len(lines); lo += 150 {
		part := load(lines[lo:min(lo+150, len(lines))])
		if err := dir.AppendTiles(part.(storage.TileIntrospector).Tiles(), part.Stats()); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]storage.Relation{"tiles": mem, "segment": seg, "dirtable": dir}
}

type scanCounts struct{ rows, scanned, skipped, fallbacks int64 }

func countsOf(st *obs.ScanStats) scanCounts {
	return scanCounts{st.RowsScanned.Load(), st.TilesScanned.Load(), st.TilesSkipped.Load(), st.JSONBFallbacks.Load()}
}

// checkNarrowed runs a plan over rel at every worker count: each run
// must return want, count every tile of rel as scanned or skipped, and
// count exactly what the one-worker run counts.
func checkNarrowed(t *testing.T, label string, rel storage.Relation, want []string, plan func() (Operator, *obs.ScanStats)) {
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
		{"a IS NULL", expr.NewIsNull(col(1), false)}, // must not narrow
	}
	// plan builds Scan(filter) → Select(every flagged slot IS NOT NULL):
	// the Select is the operator above the scan that makes the flags
	// true, which is the contract MarkNullRejecting states.
	plan := func(rel storage.Relation, pred expr.Expr, flagged int) (Operator, *obs.ScanStats) {
		scan := NewScan(rel, narrowAccesses(), nil, pred)
		scan.Stats = &obs.ScanStats{}
		var op Operator = scan
		var above expr.Expr
		for s := range scan.Accesses {
			if flagged&(1<<s) == 0 {
				continue
			}
			scan.MarkNullRejecting(s)
			notNull := expr.Expr(expr.NewIsNull(col(s), true))
			if above != nil {
				notNull = expr.NewAnd(above, notNull)
			}
			above = notNull
		}
		if above != nil {
			op = NewSelect(op, above)
		}
		return op, scan.Stats
	}

	for trial, shapes := range []int{2, 3, 4} {
		lines := narrowDocs(rand.New(rand.NewSource(int64(100+trial))), 420, shapes)
		jsonRel := loadKind(t, storage.KindJSON, lines)
		rels := narrowRelations(t, lines)
		for _, f := range filters {
			for flagged := 0; flagged < 1<<len(narrowAccesses()); flagged++ {
				oracle, _ := plan(jsonRel, f.pred, flagged)
				want := rowMultiset(Materialize(oracle, 1))
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
