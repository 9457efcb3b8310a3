package vec

import "repro/internal/expr"

// Buf is the reusable backing of one vector produced batch after
// batch: written cell by cell (a scan resolving cells one at a time,
// an expression evaluated per row), gathered into (a join or sort
// output column) or computed into (an arithmetic result). The buffers
// survive between uses; the vector handed out is rebuilt from them
// each time and is valid until the next use, or until Release hands
// the buffers to the recycler.
//
// Written cell by cell, after Reset, each cell goes straight into the
// layout of its type (Ints for BigInt/Timestamp, Floats, a Bools
// bitmap, a text arena) instead of being boxed. Only TJSON cells,
// which are documents, stay boxed; a TNull vector is all NULL. Every
// row starts NULL, so a row never written costs nothing. Rows are
// written in ascending order, each at most once; a row may be skipped.
type Buf struct {
	vec    Vector
	next   int // text written by cell: the rows below next have their end offsets
	ints   []int64
	floats []float64
	bits   []uint64
	nulls  []uint64
	u32    []uint32 // text end offsets, or a text gather's codes
	bytes  []byte   // the text arena written by cell, never a gathered source's
	boxed  []expr.Value
}

// Release hands the buffers' arrays to the recycler and empties b;
// the vector last handed out must not be read after.
func (b *Buf) Release() {
	Recycle(b.ints)
	Recycle(b.floats)
	Recycle(b.bits)
	Recycle(b.nulls)
	Recycle(b.u32)
	Recycle(b.bytes)
	*b = Buf{}
}

// Drop forgets the vector last handed out and the boxed cells, which
// may alias documents and storage columns, keeping the buffers for
// reuse.
func (b *Buf) Drop() {
	clear(b.boxed[:cap(b.boxed)])
	b.vec = Vector{}
}

// sized returns buf with length n through the recycler, never nil, so
// that an empty vector still has its backing.
func sized[T any](buf []T, n int) []T { return Resize(buf, max(n, 1))[:n] }

// nullBits returns buf zeroed as a bitmap of n rows.
func nullBits(buf []uint64, n int) []uint64 {
	buf = sized(buf, (n+63)>>6)
	clear(buf)
	return buf
}

// Reset empties b into an n-row all-NULL vector of type t, to be
// written cell by cell.
func (b *Buf) Reset(t expr.SQLType, n int) {
	b.vec, b.next = Vector{Type: t}, 0
	v := &b.vec
	switch t {
	case expr.TBigInt, expr.TTimestamp:
		b.ints = sized(b.ints, n)
		clear(b.ints) // NULL rows hold 0, as in a column
		v.Ints = b.ints
	case expr.TFloat:
		b.floats = sized(b.floats, n)
		clear(b.floats)
		v.Floats = b.floats
	case expr.TBool:
		b.bits = nullBits(b.bits, n)
		v.Bools = b.bits
	case expr.TText:
		b.u32, b.bytes = sized(b.u32, n), b.bytes[:0]
		v.StrOff = b.u32
	case expr.TNull:
		v.AllNull = true
		return
	default:
		b.boxed = sized(b.boxed, n)
		for i := range b.boxed {
			b.boxed[i] = expr.NullValue()
		}
		v.Boxed = b.boxed
		return
	}
	b.nulls = sized(b.nulls, (n+63)>>6)
	for k := range b.nulls {
		b.nulls[k] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b.nulls[len(b.nulls)-1] = 1<<uint(r) - 1
	}
	v.Nulls = b.nulls
}

// set marks row i non-NULL.
func (b *Buf) set(i int) { b.vec.Nulls[i>>6] &^= 1 << (uint(i) & 63) }

// Int writes row i of a BigInt or Timestamp vector.
func (b *Buf) Int(i int, x int64) {
	b.vec.Ints[i] = x
	b.set(i)
}

// Float writes row i of a Float vector.
func (b *Buf) Float(i int, x float64) {
	b.vec.Floats[i] = x
	b.set(i)
}

// Bool writes row i of a Bool vector.
func (b *Buf) Bool(i int, x bool) {
	if x {
		b.vec.Bools[i>>6] |= 1 << (uint(i) & 63)
	}
	b.set(i)
}

// Text copies s into the arena as row i of a Text vector.
func (b *Buf) Text(i int, s []byte) { writeText(b, i, s) }

// writeText is Text for bytes or a string.
func writeText[S []byte | string](b *Buf, i int, s S) {
	b.fillOffsets(i)
	b.bytes = append(reserve(b.bytes, len(s)), s...)
	b.vec.StrOff[i] = uint32(len(b.bytes))
	b.next = i + 1
	b.set(i)
}

// fillOffsets gives the rows skipped before row i empty entries.
func (b *Buf) fillOffsets(i int) {
	if b.next >= i {
		return
	}
	end := uint32(len(b.bytes))
	skipped := b.vec.StrOff[b.next:i]
	for k := range skipped {
		skipped[k] = end
	}
	b.next = i
}

// Value writes x, NULL or of the vector's type, as row i.
func (b *Buf) Value(i int, x expr.Value) {
	switch {
	case b.vec.Boxed != nil:
		b.vec.Boxed[i] = x
	case x.Null, b.vec.AllNull:
	case b.vec.Type == expr.TFloat:
		b.Float(i, x.F)
	case b.vec.Type == expr.TBool:
		b.Bool(i, x.B)
	case b.vec.Type == expr.TText:
		writeText(b, i, x.S)
	default:
		b.Int(i, x.I)
	}
}

// Vector returns the vector written so far, or the one last gathered
// or computed. It shares b's buffers, so it is valid until b's next
// use.
func (b *Buf) Vector() *Vector {
	if v := &b.vec; v.Type == expr.TText && !v.AllNull && v.Codes32 == nil {
		b.fillOffsets(len(v.StrOff))
		v.StrBytes = b.bytes
	}
	return &b.vec
}

// Widen returns the BigInt cells ints, with their null bitmap, as a
// Float vector.
func (b *Buf) Widen(ints []int64, nulls []uint64) *Vector {
	b.floats = sized(b.floats, len(ints))
	for i, x := range ints {
		b.floats[i] = float64(x)
	}
	b.vec = Vector{Type: expr.TFloat, Floats: b.floats, Nulls: nulls}
	return &b.vec
}

// setNull marks row i NULL in bitmap nulls.
func setNull(nulls []uint64, i int32) { nulls[i>>6] |= 1 << (uint(i) & 63) }

// anyNull returns nulls, or nil when no bit is set, so that null-free
// fast paths still apply.
func anyNull(nulls []uint64) []uint64 {
	for _, w := range nulls {
		if w != 0 {
			return nulls
		}
	}
	return nil
}

// Gather returns a vector whose row p reads src row idx[p] for every
// selected position p (nil sel: all len(idx) positions); a negative
// index yields NULL. The result has len(idx) physical rows and keeps
// src's type; text shares src's arena, Dict included, and maps each
// row to its entry through Codes32 instead of copying bytes, so the
// result is only valid as long as src's backing is.
func (b *Buf) Gather(src *Vector, idx, sel []int32) *Vector {
	n := len(idx)
	if sel == nil {
		sel = Iota(n)
	}
	out := Vector{Type: src.Type}
	b.nulls = nullBits(b.nulls, n)
	switch {
	case src.AllNull:
		out.AllNull = true
	case src.Boxed != nil:
		b.boxed = sized(b.boxed, n)
		out.Boxed = b.boxed
		for _, p := range sel {
			if r := idx[p]; r >= 0 {
				out.Boxed[p] = src.Boxed[r]
			} else {
				out.Boxed[p] = expr.NullValue()
			}
		}
	case src.Type == expr.TText:
		out.Dict, out.StrOff, out.StrBytes = src.Dict, src.StrOff, src.StrBytes
		b.u32 = sized(b.u32, n)
		out.Codes32 = b.u32
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				out.Codes32[p] = 0
				setNull(b.nulls, p)
			} else {
				out.Codes32[p] = src.CodeAt(int(r))
			}
		}
	case src.Type == expr.TFloat:
		b.floats = sized(b.floats, n)
		out.Floats = b.floats
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				setNull(b.nulls, p)
			} else {
				out.Floats[p] = src.Floats[r]
			}
		}
	case src.Type == expr.TBool:
		b.bits = nullBits(b.bits, n)
		out.Bools = b.bits
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				setNull(b.nulls, p)
			} else if src.Bool(int(r)) {
				out.Bools[p>>6] |= 1 << (uint(p) & 63)
			}
		}
	default:
		b.ints = sized(b.ints, n)
		out.Ints = b.ints
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				setNull(b.nulls, p)
			} else {
				out.Ints[p] = src.Ints[r]
			}
		}
	}
	out.Nulls = anyNull(b.nulls)
	b.vec = out
	return &b.vec
}
