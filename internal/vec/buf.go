package vec

import "repro/internal/expr"

// Buf is the one writer of vectors: the reusable backing of a vector
// produced batch after batch, written cell by cell (a scan resolving
// cells one at a time, an expression evaluated per row), appended to
// (the rows a join build, a GROUP BY key, a sort or a result keeps),
// gathered into (a join or sort output column) or computed into (an
// arithmetic result). The buffers survive between uses and come from
// the recycler; the vector handed out shares them, so it is valid until
// the next use, or until Release hands the buffers back.
//
// Written after Reset, each cell goes straight into the layout of its
// type (Ints for BigInt/Timestamp, Floats, a Bools bitmap, a text
// arena) instead of being boxed. Only TJSON cells, which are documents,
// stay boxed; a TNull vector is all NULL. Rows are written in
// ascending order, each at most once, and an append is a write at Len.
// A row never written is NULL when it lies below a row written later
// or below the length Reset set: Buf marks such rows when a write skips
// past them and when Vector closes the vector off, a bitmap word at a
// time, so an absent cell costs no write of its own, and Nulls stays
// nil until some row is NULL. The vector's arrays are kept current as
// rows are written, so a pointer from Vector reads every row written so
// far.
type Buf struct {
	vec    Vector
	n      int // rows written or passed over: the length of the vector so far
	size   int // the length Reset set, which Vector closes the vector off at
	ints   []int64
	floats []float64
	bits   []uint64
	nulls  []uint64
	u32    []uint32 // text end offsets, or a text gather's codes
	bytes  []byte   // the text arena written by cell, never a gathered source's
	boxed  []expr.Value
}

// Release hands the buffers' arrays to the recycler and empties b;
// the vector last handed out must not be read after, and b must be
// Reset before it is written again.
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
	b.hold(Vector{})
}

// hold makes v, a vector not written cell by cell, the one b hands out.
func (b *Buf) hold(v Vector) *Vector {
	b.vec, b.n, b.size = v, 0, 0
	return &b.vec
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

// Reset empties b into an n-row vector of type t, written cell by
// cell, whose rows read NULL until written; n = 0 starts one to be
// appended to. NULL rows hold zero values, as in a column.
func (b *Buf) Reset(t expr.SQLType, n int) {
	b.vec, b.n, b.size = Vector{Type: t, AllNull: t == expr.TNull}, 0, n
	b.ints, b.floats, b.bits = b.ints[:0], b.floats[:0], b.bits[:0]
	b.u32, b.bytes, b.boxed = b.u32[:0], b.bytes[:0], b.boxed[:0]
	b.extend(n)
}

// Len returns the number of rows written or passed over.
func (b *Buf) Len() int { return b.n }

// at makes row i, at or past Len, the row written next: the rows
// passed over read NULL, and the backing grows to hold row i. The
// backing always holds max(Len, size) rows.
func (b *Buf) at(i int) {
	if i != b.n || i >= b.size {
		b.nullRows(b.n, i, i+1)
	}
	b.n = i + 1
}

// nullRows marks rows [lo, hi) NULL, a bitmap word at a time, once the
// backing holds rows rows.
func (b *Buf) nullRows(lo, hi, rows int) {
	if rows > max(b.n, b.size) {
		b.extend(rows)
	}
	v := &b.vec
	switch {
	case lo >= hi, v.Type == expr.TNull, v.Type == expr.TJSON:
		return
	case v.Type == expr.TText:
		passed, end := b.u32[lo:hi], uint32(len(b.bytes))
		for k := range passed {
			passed[k] = end
		}
	}
	if v.Nulls == nil {
		b.nulls = nullBits(b.nulls, max(hi, b.size))
		v.Nulls = b.nulls
	} else if len(b.nulls) < (hi+63)>>6 {
		b.nulls = Extend(b.nulls, (hi+63)>>6)
		v.Nulls = b.nulls
	}
	for lo < hi {
		end := min(hi, (lo|63)+1)
		b.nulls[lo>>6] |= ^uint64(0) >> uint(64-(end-lo)) << (uint(lo) & 63)
		lo = end
	}
}

// extend grows the vector's backing to hi rows: zero values, NULL
// documents.
func (b *Buf) extend(hi int) {
	switch v := &b.vec; v.Type {
	case expr.TBigInt, expr.TTimestamp:
		b.ints = Extend(b.ints, hi)
		v.Ints = b.ints
	case expr.TFloat:
		b.floats = Extend(b.floats, hi)
		v.Floats = b.floats
	case expr.TBool:
		b.bits = Extend(b.bits, (hi+63)>>6)
		v.Bools = b.bits
	case expr.TText:
		b.u32 = Extend(b.u32, hi)
		v.StrOff = b.u32
	case expr.TJSON:
		b.boxed = fill(b.boxed, hi, expr.NullValue())
		v.Boxed = b.boxed
	}
}

// fill returns s extended to n elements with x.
func fill[T any](s []T, n int, x T) []T {
	old := len(s)
	if old >= n {
		return s
	}
	s = reserve(s, n-old)[:n]
	for k := old; k < n; k++ {
		s[k] = x
	}
	return s
}

// Int writes row i of a BigInt or Timestamp vector.
func (b *Buf) Int(i int, x int64) {
	b.at(i)
	b.ints[i] = x
}

// Float writes row i of a Float vector.
func (b *Buf) Float(i int, x float64) {
	b.at(i)
	b.floats[i] = x
}

// Bool writes row i of a Bool vector.
func (b *Buf) Bool(i int, x bool) {
	b.at(i)
	if x {
		b.bits[i>>6] |= 1 << (uint(i) & 63)
	}
}

// Text copies s into the arena as row i of a Text vector.
func (b *Buf) Text(i int, s []byte) { writeText(b, i, s) }

// writeText is Text for bytes or a string.
func writeText[S []byte | string](b *Buf, i int, s S) {
	b.at(i) // the rows passed over end where row i starts
	b.bytes = append(reserve(b.bytes, len(s)), s...)
	b.u32[i] = uint32(len(b.bytes))
	b.vec.StrBytes = b.bytes
}

// Value writes x, NULL or of the vector's type, as row i.
func (b *Buf) Value(i int, x expr.Value) {
	switch v := &b.vec; {
	case v.Type == expr.TJSON:
		b.at(i)
		b.boxed[i] = x
	case x.Null, v.AllNull:
		b.nullRows(b.n, i+1, i+1)
		b.n = i + 1
	case v.Type == expr.TFloat:
		b.Float(i, x.F)
	case v.Type == expr.TBool:
		b.Bool(i, x.B)
	case v.Type == expr.TText:
		writeText(b, i, x.S)
	default:
		b.Int(i, x.I)
	}
}

// AppendCell appends row i of src, a vector of b's type.
func (b *Buf) AppendCell(src *Vector, i int) {
	switch v, n := &b.vec, b.n; {
	case src.IsNull(i) || v.AllNull:
		b.Value(n, expr.NullValue())
	case v.Type == expr.TJSON:
		b.Value(n, src.Boxed[i])
	case v.Type == expr.TFloat:
		b.Float(n, src.Floats[i])
	case v.Type == expr.TText:
		writeText(b, n, src.StrAt(i))
	case v.Type == expr.TBool:
		b.Bool(n, src.Bool(i))
	default:
		b.Int(n, src.Ints[i])
	}
}

// AppendVector appends the selected rows of src (nil sel: its first n
// rows) in order. Every array grows at least doubling, so a column
// appended batch by batch copies each cell a constant number of times.
func (b *Buf) AppendVector(src *Vector, sel []int32, n int) {
	if sel == nil {
		sel = Iota(n)
	}
	switch v := &b.vec; {
	case v.Type == expr.TText:
		b.growText(src, sel)
	case src.Nulls != nil || src.AllNull:
	case v.Type == expr.TBigInt, v.Type == expr.TTimestamp:
		b.ints = appendSel(b.ints, b.n, src.Ints, sel)
		v.Ints, b.n = b.ints, b.n+len(sel)
		return
	case v.Type == expr.TFloat:
		b.floats = appendSel(b.floats, b.n, src.Floats, sel)
		v.Floats, b.n = b.floats, b.n+len(sel)
		return
	}
	for _, i := range sel {
		b.AppendCell(src, int(i))
	}
}

// appendSel returns dst's first n elements followed by the selected
// elements of src.
func appendSel[T int64 | float64](dst []T, n int, src []T, sel []int32) []T {
	dst = Extend(dst, n+len(sel))
	for k, i := range sel {
		dst[n+k] = src[i]
	}
	return dst
}

// growText makes room for the selected rows of text vector src. Without
// codes it reserves the selection's share of the bytes between its
// first and last entries: the exact count for a dense selection.
func (b *Buf) growText(src *Vector, sel []int32) {
	text := 0
	plain := src.Codes8 == nil && src.Codes16 == nil && src.Codes32 == nil
	if n := len(sel); n > 0 && sel[n-1] >= sel[0] && !src.AllNull && plain {
		text = int(src.StrOff[sel[n-1]])
		if sel[0] > 0 {
			text -= int(src.StrOff[sel[0]-1])
		}
		text = text * n / int(sel[n-1]-sel[0]+1)
	}
	b.u32, b.bytes = reserve(b.u32, len(sel)), reserve(b.bytes, text)
	b.vec.StrOff, b.vec.StrBytes = b.u32, b.bytes
}

// Vector returns the vector written so far, closed off at the length
// Reset set, or the one last gathered or computed. It shares b's
// buffers, so it is valid until b's next use; appending to b keeps the
// pointer current.
func (b *Buf) Vector() *Vector {
	if b.n < b.size {
		b.nullRows(b.n, b.size, b.size)
		b.n = b.size
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
	return b.hold(Vector{Type: expr.TFloat, Floats: b.floats, Nulls: nulls})
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
	return b.hold(out)
}
