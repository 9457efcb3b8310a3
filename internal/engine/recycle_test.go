package engine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/expr"
	"repro/internal/vec"
)

// TestOperatorsUnderPoisonedRecycling runs the operator diff tests
// twice with every recycled array filled with a sentinel when it is
// handed back: an operator that reads state after releasing it, or
// that takes a recycled array for a zeroed one, answers differently
// from the oracle.
func TestOperatorsUnderPoisonedRecycling(t *testing.T) {
	defer vec.PoisonReleased()()
	for round := 0; round < 2; round++ {
		t.Run("join", TestHashJoinMatchesNestedLoop)
		t.Run("groupby", TestGroupByMatchesMapOfRows)
		t.Run("topk", TestTopKMatchesFullSort)
	}
}

// intSource pushes n rows of width BigInt columns, cell (i, c) =
// f(i, c), in batches of 1024.
func intSource(width, n int, f func(i, c int) int64) *batchSource {
	s := &batchSource{cols: make([]ColumnDesc, width)}
	for c := range s.cols {
		s.cols[c] = ColumnDesc{Name: "c", Type: expr.TBigInt}
	}
	for lo := 0; lo < n; lo += 1024 {
		b := &vec.Batch{Len: min(1024, n-lo), Cols: make([]vec.Vector, width)}
		for c := range b.Cols {
			b.Cols[c] = vec.Vector{Type: expr.TBigInt, Ints: make([]int64, b.Len)}
			for i := range b.Len {
				b.Cols[c].Ints[i] = f(lo+i, c)
			}
		}
		s.batches = append(s.batches, b)
	}
	return s
}

// TestSecondRunRecyclesTheFirstRunsArrays: a join + group-by run hands
// its state back, so an identical second run allocates less than half
// of what the first did. The garbage collector is off, so the pools
// keep everything the first run released.
func TestSecondRunRecyclesTheFirstRunsArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	build := intSource(2, 4096, func(i, c int) int64 { return int64(i >> (6 * c)) })
	probe := intSource(2, 16384, func(i, c int) int64 { return int64(i*(1-c) + (i%4096)*c) })
	plan := func() Operator {
		j := NewHashJoin(build, probe, []int{0}, []int{1}, InnerJoin)
		return NewGroupBy(j, []expr.Expr{expr.NewCol(3, expr.TBigInt)}, []string{"g"}, []AggSpec{
			{Func: Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "s"},
			{Func: Count, Arg: expr.NewCol(0, expr.TBigInt), Name: "d", Distinct: true}})
	}
	runtime.GC() // twice: empties the pools of what earlier tests released
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if n := CountRows(plan(), 2); n != 64 {
			t.Fatalf("%d groups, want 64", n)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first, second := allocated(), allocated()
	t.Logf("first run %d B, second %d B", first, second)
	if 2*second >= first {
		t.Errorf("second run allocated %d B, not less than half of the first's %d B", second, first)
	}
}
