package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// Microbenchmarks of the operators over one tile-backed relation, fed
// column vectors.

const benchRows = 50_000

var (
	benchOnce  sync.Once
	benchTiles storage.Relation
)

func benchRelation(b *testing.B) storage.Relation {
	b.Helper()
	benchOnce.Do(func() {
		lines := make([][]byte, benchRows)
		for i := range lines {
			lines[i] = []byte(fmt.Sprintf(`{"a":%d,"b":%d.25,"g":%d,"s":"u%d"}`,
				i%1000, i%500, i%10, i%100))
		}
		l, err := storage.NewLoader(storage.KindTiles, storage.DefaultLoaderConfig())
		if err != nil {
			panic(err)
		}
		benchTiles, err = l.Load("bench", lines, 4)
		if err != nil {
			panic(err)
		}
	})
	return benchTiles
}

func benchAccesses() []storage.Access {
	return []storage.Access{
		storage.NewAccess(expr.TBigInt, "a"),
		storage.NewAccess(expr.TFloat, "b"),
		storage.NewAccess(expr.TBigInt, "g"),
	}
}

func filterA() expr.Expr {
	return expr.NewCmp(expr.LT, expr.NewCol(0, expr.TBigInt), expr.NewConst(expr.IntValue(500)))
}

func runScanFilter(b *testing.B, rel storage.Relation) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := CountRows(NewScan(rel, benchAccesses(), nil, filterA()), 1)
		if n != int64(benchRows)/2 {
			b.Fatalf("count = %d", n)
		}
	}
}

func BenchmarkScanFilterVec(b *testing.B) {
	runScanFilter(b, benchRelation(b))
}

func runScanSum(b *testing.B, rel storage.Relation) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gb := NewGroupBy(NewScan(rel, benchAccesses(), nil, nil), nil, nil, []AggSpec{
			{Func: Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "sa"},
			{Func: Sum, Arg: expr.NewCol(1, expr.TFloat), Name: "sb"},
		})
		res := Materialize(gb, 1)
		if len(res.Rows) != 1 || res.Rows[0][0].Null {
			b.Fatal("bad aggregate")
		}
	}
}

func BenchmarkScanSumVec(b *testing.B) {
	runScanSum(b, benchRelation(b))
}

func runFilterAgg(b *testing.B, rel storage.Relation) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gb := NewGroupBy(NewScan(rel, benchAccesses(), nil, filterA()), nil, nil, []AggSpec{
			{Func: CountStar, Name: "n"},
			{Func: Sum, Arg: expr.NewCol(1, expr.TFloat), Name: "sb"},
			{Func: Min, Arg: expr.NewCol(0, expr.TBigInt), Name: "lo"},
			{Func: Max, Arg: expr.NewCol(0, expr.TBigInt), Name: "hi"},
		})
		res := Materialize(gb, 1)
		if res.Rows[0][0].I != int64(benchRows)/2 {
			b.Fatalf("count = %v", res.Rows[0][0])
		}
	}
}

func BenchmarkScanFilterAggVec(b *testing.B) {
	runFilterAgg(b, benchRelation(b))
}

func runFilterGroupBy(b *testing.B, rel storage.Relation) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gb := NewGroupBy(NewScan(rel, benchAccesses(), nil, filterA()),
			[]expr.Expr{expr.NewCol(2, expr.TBigInt)}, []string{"g"},
			[]AggSpec{{Func: Sum, Arg: expr.NewCol(1, expr.TFloat), Name: "sb"}})
		res := Materialize(gb, 1)
		if len(res.Rows) != 10 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
}

func BenchmarkFilterGroupByVec(b *testing.B) {
	runFilterGroupBy(b, benchRelation(b))
}

// BenchmarkHashJoinBatch probes 50 K rows against a 1000-key build side
// with one match each: the aliased-probe shape of the inner join.
func BenchmarkHashJoinBatch(b *testing.B) {
	rel := benchRelation(b)
	key := storage.NewAccess(expr.TBigInt, "a")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build := NewGroupBy(NewScan(rel, []storage.Access{key}, nil, nil),
			[]expr.Expr{expr.NewCol(0, expr.TBigInt)}, []string{"a"}, []AggSpec{{Func: CountStar, Name: "n"}})
		join := NewHashJoin(build, NewScan(rel, benchAccesses(), nil, nil), []int{0}, []int{0}, InnerJoin)
		if n := CountRows(join, 1); n != benchRows {
			b.Fatalf("join rows = %d", n)
		}
	}
}

// BenchmarkGroupByTyped groups 50 K rows by (int, text) into 1000
// groups with an arithmetic aggregate argument.
func BenchmarkGroupByTyped(b *testing.B) {
	rel := benchRelation(b)
	accs := append(benchAccesses(), storage.NewAccess(expr.TText, "s"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gb := NewGroupBy(NewScan(rel, accs, nil, nil),
			[]expr.Expr{expr.NewCol(2, expr.TBigInt), expr.NewCol(3, expr.TText)}, []string{"g", "s"},
			[]AggSpec{{Func: Sum, Name: "v", Arg: expr.NewArith(expr.Mul, expr.NewCol(1, expr.TFloat),
				expr.NewArith(expr.Sub, expr.NewConst(expr.FloatValue(1)), expr.NewCol(1, expr.TFloat)))}})
		if n := CountRows(gb, 1); n != 100 {
			b.Fatalf("groups = %d", n)
		}
	}
}

// BenchmarkTopKBatch keeps the 100 largest of 50 K rows.
func BenchmarkTopKBatch(b *testing.B) {
	rel := benchRelation(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := NewOrderBy(NewScan(rel, benchAccesses(), nil, nil),
			OrderKey{E: expr.NewCol(1, expr.TFloat), Desc: true}, OrderKey{E: expr.NewCol(0, expr.TBigInt)})
		top.Limit = 100
		if n := CountRows(top, 1); n != 100 {
			b.Fatalf("top rows = %d", n)
		}
	}
}
