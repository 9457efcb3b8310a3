package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// Microbenchmarks comparing dictionary-encoded and arena string
// columns in one corpus, whose data picks the layouts: "level" has 4
// values (NDV/rows far below the dictionary threshold, so it is
// dictionary-encoded) and "host" has 2000 (above it in every tile, so
// it keeps the arena). Predicate kernels evaluate in code space vs per
// row byte comparisons; the code-indexed GROUP BY vs per-row hashing.

const (
	dictBenchRows  = 50_000
	dictBenchHosts = 2000
)

var (
	dictBenchOnce sync.Once
	dictBenchRel  storage.Relation
)

func dictBenchRelation(b *testing.B) storage.Relation {
	b.Helper()
	dictBenchOnce.Do(func() {
		levels := []string{"debug", "error", "info", "warn"}
		lines := make([][]byte, dictBenchRows)
		for i := range lines {
			lines[i] = []byte(fmt.Sprintf(`{"level":"%s","host":"h%04d","latency":%d}`,
				levels[(i*7)%4], i%dictBenchHosts, i%1000))
		}
		l, err := storage.NewLoader(storage.KindTiles, storage.DefaultLoaderConfig())
		if err != nil {
			panic(err)
		}
		if dictBenchRel, err = l.Load("bench", lines, 4); err != nil {
			panic(err)
		}
		for _, tl := range dictBenchRel.(storage.TileIntrospector).Tiles() {
			for col, wantDict := range map[string]bool{"level": true, "host": false} {
				for _, ci := range tl.ColumnsForPath(storage.NewAccess(expr.TText, col).PathEnc) {
					if tl.Column(ci).Col.Dict != wantDict {
						panic(fmt.Sprintf("column %q: dictionary layout %v, want %v", col, !wantDict, wantDict))
					}
				}
			}
		}
	})
	return dictBenchRel
}

// dictBenchAccesses reads the dictionary column "level" or the arena
// column "host", plus latency.
func dictBenchAccesses(col string) []storage.Access {
	return []storage.Access{
		storage.NewAccess(expr.TText, col),
		storage.NewAccess(expr.TBigInt, "latency"),
	}
}

func runDictFilter(b *testing.B, col, value string) {
	b.Helper()
	rel := dictBenchRelation(b)
	b.ReportAllocs()
	b.ResetTimer()
	f := expr.NewCmp(expr.EQ, expr.NewCol(0, expr.TText),
		expr.NewConst(expr.TextValue(value)))
	for i := 0; i < b.N; i++ {
		n := CountRows(NewScan(rel, dictBenchAccesses(col), nil, f), 1)
		if n == 0 {
			b.Fatal("empty filter result")
		}
	}
}

func BenchmarkStrFilterArena(b *testing.B) { runDictFilter(b, "host", "h0007") }

func BenchmarkStrFilterDict(b *testing.B) { runDictFilter(b, "level", "error") }

func runDictGroupBy(b *testing.B, col string, groups int) {
	b.Helper()
	rel := dictBenchRelation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := NewGroupBy(NewScan(rel, dictBenchAccesses(col), nil, nil),
			[]expr.Expr{expr.NewCol(0, expr.TText)}, []string{col},
			[]AggSpec{
				{Func: CountStar, Name: "n"},
				{Func: Sum, Arg: expr.NewCol(1, expr.TBigInt), Name: "lat"},
			})
		res := Materialize(gb, 1)
		if len(res.Rows) != groups {
			b.Fatalf("groups = %d, want %d", len(res.Rows), groups)
		}
	}
}

func BenchmarkStrGroupByArena(b *testing.B) { runDictGroupBy(b, "host", dictBenchHosts) }

func BenchmarkStrGroupByDict(b *testing.B) { runDictGroupBy(b, "level", 4) }
