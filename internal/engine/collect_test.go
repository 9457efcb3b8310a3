package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/vec"
)

// TestSortedOrderMatchesSortRowsOnTies: where the comparator ties rows
// that render differently — 1, 1.0 and "1" in one mixed column — the
// permutation still lists them exactly as SortRows lists the boxed
// rows, because both run one pdqsort with one comparator. The typed
// columns around it (text with ties, floats with -0 and NaN, NULLs)
// take the typed comparisons.
func TestSortedOrderMatchesSortRowsOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mixed := []expr.Value{expr.IntValue(1), expr.FloatValue(1), expr.TextValue("1"),
		expr.TextValue("2"), expr.IntValue(2), expr.NullValue()}
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, math.Inf(-1)}
	const n = 2000
	cols := []ColumnDesc{{"t", expr.TText}, {"m", expr.TText}, {"f", expr.TFloat}}
	bs := []*vec.Builder{vec.NewBuilder(expr.TText), vec.NewBuilder(expr.TText), vec.NewBuilder(expr.TFloat)}
	for i := 0; i < n; i++ {
		if r.Intn(5) == 0 {
			bs[0].AppendNull()
		} else {
			bs[0].AppendValue(expr.TextValue(fmt.Sprintf("k%d", r.Intn(4))))
		}
		bs[1].AppendValue(mixed[r.Intn(len(mixed))])
		bs[2].AppendValue(expr.FloatValue(floats[r.Intn(len(floats))]))
	}
	c := &Collected{Cols: cols, Len: n}
	for _, b := range bs {
		c.Vecs = append(c.Vecs, b.Vec)
	}
	want := c.Box()
	want.SortRows()
	for i, k := range c.SortedOrder() {
		for j, w := range want.Rows[i] {
			g := c.Vecs[j].Value(int(k))
			if g.Null != w.Null || g.Typ != w.Typ || g.String() != w.String() {
				t.Fatalf("row %d col %d: %v, want %v", i, j, g, w)
			}
		}
	}
}
