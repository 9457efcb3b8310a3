package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Collected is an operator's whole output as owned column vectors,
// rows worker-ascending.
type Collected struct {
	Cols []ColumnDesc
	Vecs []vec.Vector
	Len  int
}

// Collect runs an operator into per-worker column buffers — no lock,
// no boxing — and concatenates them worker-ascending. The result owns
// its vectors: they are never handed back to the recycler.
func Collect(op Operator, workers int) *Collected {
	out := &Collected{Cols: op.Columns()}
	parts := perWorker(workers, func() []vec.Buf { return newBufs(out.Cols) })
	counts := perWorker(workers, func() paddedCount { return paddedCount{} })
	run(op, workers, func(w int, b *vec.Batch) {
		for c := range parts[w] {
			parts[w][c].AppendVector(&b.Cols[c], b.Sel, b.Len)
		}
		counts[w].n += int64(b.Rows())
	})
	for c := range parts[0] {
		appendParts(parts, c)
		out.Vecs = append(out.Vecs, *parts[0][c].Vector())
	}
	for i := range counts {
		out.Len += int(counts[i].n)
	}
	return out
}

// newBufs returns one empty buffer per column of cols, to be appended
// to.
func newBufs(cols []ColumnDesc) []vec.Buf {
	bufs := make([]vec.Buf, len(cols))
	for c := range bufs {
		bufs[c].Reset(cols[c].Type, 0)
	}
	return bufs
}

// appendParts appends column c of every later worker's buffers to the
// first worker's, releasing each as it goes.
func appendParts(parts [][]vec.Buf, c int) {
	for _, p := range parts[1:] {
		parts[0][c].AppendVector(p[c].Vector(), nil, p[c].Len())
		p[c].Release()
	}
}

// releaseBufs hands every buffer's arrays to the recycler.
func releaseBufs(bufs []vec.Buf) {
	for c := range bufs {
		bufs[c].Release()
	}
}

// Box boxes every row (counted in obs.RowsBoxed): the one place the
// engine turns column vectors into rows.
func (c *Collected) Box() *Result {
	w := len(c.Vecs)
	rows, cells := make([][]expr.Value, c.Len), make([]expr.Value, c.Len*w)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		for k := range c.Vecs {
			rows[i][k] = c.Vecs[k].Value(i)
		}
	}
	obs.RowsBoxed.Add(int64(c.Len))
	return &Result{Cols: c.Cols, Rows: rows}
}

// SortedOrder returns the permutation that lists the rows as SortRows
// lists them boxed: one comparator and one pdqsort (slices.SortFunc is
// sort.Slice's), so even ties that render differently (1, "1") agree.
func (c *Collected) SortedOrder() []int32 {
	perm := slices.Clone(vec.Iota(c.Len))
	slices.SortFunc(perm, rowOrder(c.Vecs, nil, c.Len))
	return perm
}

// rowOrder compares two of the n rows of cols by cellOrder, column by
// column, flipped where desc is true.
func rowOrder(cols []vec.Vector, desc []bool, n int) func(a, b int32) int {
	ords := make([]func(a, b int) int, len(cols))
	for k := range cols {
		ords[k] = cellOrder(&cols[k], n)
	}
	return func(a, b int32) int {
		for k, ord := range ords {
			if o := ord(int(a), int(b)); o != 0 {
				if k < len(desc) && desc[k] {
					return -o
				}
				return o
			}
		}
		return 0
	}
}

// cellOrder returns cellsOrder over the n rows of v; typed text is
// compared first by its leading eight bytes, and each ::JSON document
// is rendered to text once, not on every comparison.
func cellOrder(v *vec.Vector, n int) func(a, b int) int {
	switch {
	case v.AllNull:
	case v.Type == expr.TJSON:
		text := make([]string, n)
		for i := range text {
			if !v.IsNull(i) {
				text[i] = v.Boxed[i].String()
			}
		}
		return func(a, b int) int {
			if an, bn := v.IsNull(a), v.IsNull(b); an || bn {
				return valueOrder(expr.Value{Null: an}, expr.Value{Null: bn})
			}
			return strings.Compare(text[a], text[b])
		}
	case v.Type == expr.TText:
		prefix := make([]uint64, n)
		for i := range prefix {
			var head [8]byte
			if !v.IsNull(i) {
				copy(head[:], v.StrAt(i))
			}
			prefix[i] = binary.BigEndian.Uint64(head[:])
		}
		return func(a, b int) int {
			if x, y := prefix[a], prefix[b]; x != y && !v.IsNull(a) && !v.IsNull(b) {
				return cmp.Compare(x, y)
			}
			return cellsOrder(v, a, v, b)
		}
	}
	return func(a, b int) int { return cellsOrder(v, a, v, b) }
}

// cellsOrder is valueOrder of row i of a and row j of b, compared in
// place where both are typed alike.
func cellsOrder(a *vec.Vector, i int, b *vec.Vector, j int) int {
	if an, bn := a.IsNull(i), b.IsNull(j); an || bn {
		return valueOrder(expr.Value{Null: an}, expr.Value{Null: bn}) // decided by the NULLs
	}
	if a.Type == b.Type {
		switch a.Type {
		case expr.TText:
			return bytes.Compare(a.StrAt(i), b.StrAt(j))
		case expr.TBigInt, expr.TTimestamp:
			return cmp.Compare(a.Ints[i], b.Ints[j])
		case expr.TFloat:
			return floatOrder(a.Floats[i], b.Floats[j])
		}
	}
	return valueOrder(a.Value(i), b.Value(j))
}

// floatOrder is valueOrder of two floats: by value, ties by their
// rendering, which puts -0 before 0 and NaN after every number.
func floatOrder(x, y float64) int {
	switch {
	case x != x || y != y:
		return cmp.Compare(y, x) // cmp.Compare puts NaN first; flipped, last
	case x == y:
		return cmp.Compare(math.Float64bits(y)>>63, math.Float64bits(x)>>63)
	}
	return cmp.Compare(x, y)
}

// valueOrder is SortRows's order of two cells: NULL first, then
// expr.Compare, then the rendered text. It is the engine's one order
// of cells: ORDER BY and deterministic plain-scan output use it too.
func valueOrder(a, b expr.Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if c, ok := expr.Compare(a, b); ok && c != 0 {
		return c
	}
	return strings.Compare(a.String(), b.String())
}
