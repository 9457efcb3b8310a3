package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/vec"
)

// Collected is an operator's whole output as owned column vectors,
// rows worker-ascending.
type Collected struct {
	Cols []ColumnDesc
	Vecs []vec.Vector
	Len  int
}

// Collect runs an operator into per-worker column builders — no lock,
// no boxing — and concatenates them worker-ascending.
func Collect(op Operator, workers int) *Collected {
	out := &Collected{Cols: op.Columns()}
	parts := perWorker(workers, func() []*vec.Builder {
		bs := make([]*vec.Builder, len(out.Cols))
		for c := range bs {
			bs[c] = vec.NewBuilder(out.Cols[c].Type)
		}
		return bs
	})
	counts := perWorker(workers, func() paddedCount { return paddedCount{} })
	op.RunBatches(workers, func(w int, b *vec.Batch) {
		for c, bl := range parts[w] {
			bl.AppendVector(&b.Cols[c], b.Sel, b.Len)
		}
		counts[w].n += int64(b.Rows())
	})
	for c, bl := range parts[0] {
		for _, p := range parts[1:] {
			bl.AppendVector(&p[c].Vec, nil, p[c].Len())
		}
		out.Vecs = append(out.Vecs, bl.Vec)
	}
	for i := range counts {
		out.Len += int(counts[i].n)
	}
	return out
}

// Box boxes every row (counted in obs.RowsBoxed).
func (c *Collected) Box() *Result {
	return &Result{Cols: c.Cols, Rows: appendBoxedRows(nil, &vec.Batch{Cols: c.Vecs, Len: c.Len})}
}

// SortedOrder returns the permutation that lists the rows as SortRows
// lists them boxed: one comparator and one pdqsort (slices.SortFunc is
// sort.Slice's), so even ties that render differently (1, "1") agree.
func (c *Collected) SortedOrder() []int32 {
	perm := slices.Clone(vec.Iota(c.Len))
	cols := make([]func(a, b int) int, len(c.Vecs))
	for k := range c.Vecs {
		cols[k] = cellOrder(&c.Vecs[k], c.Len)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		o := 0
		for k := 0; o == 0 && k < len(cols); k++ {
			o = cols[k](int(a), int(b))
		}
		return o
	})
	return perm
}

// cellOrder returns valueOrder over the n rows of v; typed text is
// compared in place, first by its leading eight bytes.
func cellOrder(v *vec.Vector, n int) func(a, b int) int {
	if v.Boxed != nil || v.AllNull || v.Type != expr.TText {
		return func(a, b int) int { return valueOrder(v.Value(a), v.Value(b)) }
	}
	prefix := make([]uint64, n)
	for i := range prefix {
		var head [8]byte
		if !v.IsNull(i) {
			copy(head[:], v.StrAt(i))
		}
		prefix[i] = binary.BigEndian.Uint64(head[:])
	}
	return func(a, b int) int {
		if an, bn := v.IsNull(a), v.IsNull(b); an || bn {
			return valueOrder(expr.Value{Null: an}, expr.Value{Null: bn}) // decided by the NULLs
		}
		if x, y := prefix[a], prefix[b]; x != y {
			return cmp.Compare(x, y)
		}
		return bytes.Compare(v.StrAt(a), v.StrAt(b))
	}
}

// valueOrder is SortRows's order of two cells: NULL first, then
// expr.Compare, then the rendered text.
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
