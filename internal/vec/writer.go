package vec

import "repro/internal/expr"

// Writer fills an n-row vector position by position: the per-row half
// of a scan, which resolves cells one at a time, and an expression
// evaluated cell by cell write each straight into the layout of its
// type (Ints for BigInt/Timestamp, Floats, a Bools bitmap, a text
// arena) instead of boxing it. Only TJSON cells, which are documents,
// stay boxed; a TNull vector is all NULL. Every row starts NULL, so a row
// never written costs nothing. Rows are written in ascending order,
// each at most once; a row may be skipped.
type Writer struct {
	vec  Vector // only the backing of its type is set
	next int    // text: the rows below next have their end offsets
	// The backings of every type written so far, kept across Resets.
	ints   []int64
	floats []float64
	bools  []uint64
	nulls  []uint64
	off    []uint32
	bytes  []byte
	boxed  []expr.Value
}

// Reset empties w into an n-row all-NULL vector of type t, keeping its
// buffers.
func (w *Writer) Reset(t expr.SQLType, n int) {
	if w.vec.StrBytes != nil {
		w.bytes = w.vec.StrBytes[:0] // the arena may have grown
	}
	w.vec, w.next = Vector{Type: t}, 0
	v := &w.vec
	switch t {
	case expr.TBigInt, expr.TTimestamp:
		w.ints = grown(w.ints, n)
		clear(w.ints) // NULL rows hold 0, as in a column
		v.Ints = w.ints
	case expr.TFloat:
		w.floats = grown(w.floats, n)
		clear(w.floats)
		v.Floats = w.floats
	case expr.TBool:
		w.bools = grown(w.bools, (n+63)>>6)
		clear(w.bools)
		v.Bools = w.bools
	case expr.TText:
		w.off = grown(w.off, n)
		v.StrOff, v.StrBytes = w.off, w.bytes[:0:cap(w.bytes)]
	case expr.TNull:
		v.AllNull = true
		return
	default:
		w.boxed = grown(w.boxed, n)
		for i := range w.boxed {
			w.boxed[i] = expr.NullValue()
		}
		v.Boxed = w.boxed
		return
	}
	w.nulls = grown(w.nulls, (n+63)>>6)
	for k := range w.nulls {
		w.nulls[k] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		w.nulls[len(w.nulls)-1] = 1<<uint(r) - 1
	}
	v.Nulls = w.nulls
}

// grown returns s with length n, reusing its backing when it holds n.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// set marks row i non-NULL.
func (w *Writer) set(i int) { w.vec.Nulls[i>>6] &^= 1 << (uint(i) & 63) }

// Int writes row i of a BigInt or Timestamp vector.
func (w *Writer) Int(i int, x int64) {
	w.vec.Ints[i] = x
	w.set(i)
}

// Float writes row i of a Float vector.
func (w *Writer) Float(i int, x float64) {
	w.vec.Floats[i] = x
	w.set(i)
}

// Bool writes row i of a Bool vector.
func (w *Writer) Bool(i int, x bool) {
	if x {
		w.vec.Bools[i>>6] |= 1 << (uint(i) & 63)
	}
	w.set(i)
}

// Text copies s into the arena as row i of a Text vector.
func (w *Writer) Text(i int, s []byte) {
	w.fillOffsets(i)
	w.vec.StrBytes = append(w.vec.StrBytes, s...)
	w.endText(i)
}

// textString is Text for a Go string.
func (w *Writer) textString(i int, s string) {
	w.fillOffsets(i)
	w.vec.StrBytes = append(w.vec.StrBytes, s...)
	w.endText(i)
}

// fillOffsets gives the rows skipped before row i empty entries.
func (w *Writer) fillOffsets(i int) {
	if w.next >= i {
		return
	}
	end := uint32(len(w.vec.StrBytes))
	skipped := w.vec.StrOff[w.next:i]
	for k := range skipped {
		skipped[k] = end
	}
	w.next = i
}

func (w *Writer) endText(i int) {
	w.vec.StrOff[i] = uint32(len(w.vec.StrBytes))
	w.next = i + 1
	w.set(i)
}

// Value writes x, NULL or of the vector's type, as row i.
func (w *Writer) Value(i int, x expr.Value) {
	switch {
	case w.vec.Boxed != nil:
		w.vec.Boxed[i] = x
	case x.Null, w.vec.AllNull:
	case w.vec.Type == expr.TFloat:
		w.Float(i, x.F)
	case w.vec.Type == expr.TBool:
		w.Bool(i, x.B)
	case w.vec.Type == expr.TText:
		w.textString(i, x.S)
	default:
		w.Int(i, x.I)
	}
}

// Vector returns the vector written so far. It shares w's buffers, so
// it is valid until the next Reset.
func (w *Writer) Vector() Vector {
	if w.vec.Type == expr.TText {
		w.fillOffsets(len(w.vec.StrOff))
	}
	return w.vec
}

// Release drops the boxed cells, which may alias documents.
func (w *Writer) Release() {
	clear(w.boxed)
	w.vec.Boxed = nil
}
