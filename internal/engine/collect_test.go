package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsongen"
	"repro/internal/vec"
)

// randomDocs returns n random JSONB documents.
func randomDocs(r *rand.Rand, n int) []expr.Value {
	docs := make([]expr.Value, n)
	for i := range docs {
		docs[i] = expr.JSONValue(jsonb.NewDoc(jsonb.Encode(jsongen.RandomObject(r, 3))))
	}
	return docs
}

// TestSortedOrderMatchesSortRowsOnTies: the permutation lists the rows
// exactly as SortRows lists the boxed rows, ties included, because both
// run one pdqsort with one comparator that orders cells as valueOrder
// does. The columns hold random JSONB documents with repeats (NULL
// first, then by their text, which the permutation renders once per
// sort), text with ties, and floats with -0 and NaN, all with NULLs.
func TestSortedOrderMatchesSortRowsOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := randomDocs(r, 40)
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, math.Inf(-1)}
	const n = 2000
	cols := []ColumnDesc{{"j", expr.TJSON}, {"t", expr.TText}, {"f", expr.TFloat}}
	bs := make([]vec.Buf, len(cols))
	for k := range bs {
		bs[k].Reset(cols[k].Type, n)
	}
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			bs[0].Value(i, expr.NullValue())
		} else {
			bs[0].Value(i, docs[r.Intn(len(docs))])
		}
		if r.Intn(5) != 0 { // else never written: NULL
			bs[1].Value(i, expr.TextValue(fmt.Sprintf("k%d", r.Intn(4))))
		}
		bs[2].Value(i, expr.FloatValue(floats[r.Intn(len(floats))]))
	}
	c := &Collected{Cols: cols, Len: n}
	for k := range bs {
		c.Vecs = append(c.Vecs, *bs[k].Vector())
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

// BenchmarkSortedOrderJSON orders 10,000 random ::JSON documents, as a
// plain scan of a document column orders its result.
func BenchmarkSortedOrderJSON(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var bl vec.Buf
	bl.Reset(expr.TJSON, 0)
	for i, d := range randomDocs(r, 10000) {
		bl.Value(i, d)
	}
	c := &Collected{Cols: []ColumnDesc{{"data", expr.TJSON}}, Vecs: []vec.Vector{*bl.Vector()}, Len: bl.Len()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SortedOrder()
	}
}
