package vec

import "repro/internal/expr"

// Builder is an append-only column that owns its data: the typed copy
// of vector cells that must outlive the batch that delivered them —
// join build sides, group keys, operator output. It stores cells in
// the layout of its declared type (Ints for BigInt/Timestamp, Floats,
// a Bools bitmap, a text arena, boxed documents for JSON); every cell
// appended is NULL or of that type. Vec is the live vector view of the
// content, valid for the kernels as it grows: its arrays come from the
// recycler, and an array the builder outgrows goes back to it, so a
// copy of Vec is stale after the next append. Release hands the arrays
// back once the content is dead.
type Builder struct {
	Vec Vector
	n   int
}

// NewBuilder returns an empty builder for a column declared as t.
func NewBuilder(t expr.SQLType) *Builder {
	b := &Builder{}
	b.reset(t)
	return b
}

func (b *Builder) reset(t expr.SQLType) {
	b.Vec, b.n = Vector{Type: t}, 0
	switch t {
	case expr.TJSON:
		b.Vec.Boxed = []expr.Value{}
	case expr.TNull:
		b.Vec.AllNull = true
	}
}

// Release hands the builder's arrays to the recycler and empties it.
// Vec, every copy of it and every batch that carries one must not be
// read after; the builder itself may be appended to again.
func (b *Builder) Release() {
	v := &b.Vec
	Recycle(v.Nulls)
	Recycle(v.Ints)
	Recycle(v.Floats)
	Recycle(v.Bools)
	Recycle(v.StrOff)
	Recycle(v.StrBytes)
	b.reset(v.Type)
}

// Len returns the number of cells appended.
func (b *Builder) Len() int { return b.n }

// AppendNull appends SQL NULL.
func (b *Builder) AppendNull() {
	v := &b.Vec
	switch {
	case v.AllNull:
		b.n++
		return
	case v.Boxed != nil:
		v.Boxed = append(v.Boxed, expr.NullValue())
		b.n++
		return
	case v.Type == expr.TFloat:
		v.Floats = Push(v.Floats, 0)
	case v.Type == expr.TText:
		v.StrOff = Push(v.StrOff, uint32(len(v.StrBytes)))
	case v.Type == expr.TBool:
		b.growBools()
	default:
		v.Ints = Push(v.Ints, 0)
	}
	for len(v.Nulls) <= b.n>>6 {
		v.Nulls = Push(v.Nulls, 0)
	}
	v.Nulls[b.n>>6] |= 1 << (uint(b.n) & 63)
	b.n++
}

// growBools gives the bitmap a word for row n.
func (b *Builder) growBools() {
	if b.n>>6 >= len(b.Vec.Bools) {
		b.Vec.Bools = Push(b.Vec.Bools, 0)
	}
}

// appendBool appends a non-null boolean.
func (b *Builder) appendBool(x bool) {
	b.growBools()
	if x {
		b.Vec.Bools[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
}

// AppendValue appends one boxed value, NULL or of the builder's type.
func (b *Builder) AppendValue(x expr.Value) {
	v := &b.Vec
	switch {
	case x.Null, v.AllNull:
		b.AppendNull()
		return
	case v.Boxed != nil:
		v.Boxed = append(v.Boxed, x)
	case v.Type == expr.TFloat:
		v.Floats = Push(v.Floats, x.F)
	case v.Type == expr.TText:
		v.StrBytes = append(reserve(v.StrBytes, len(x.S)), x.S...)
		v.StrOff = Push(v.StrOff, uint32(len(v.StrBytes)))
	case v.Type == expr.TBool:
		b.appendBool(x.B)
	default:
		v.Ints = Push(v.Ints, x.I)
	}
	b.n++
}

// AppendCell appends row i of src, a vector of the builder's type.
func (b *Builder) AppendCell(src *Vector, i int) {
	v := &b.Vec
	switch {
	case src.IsNull(i) || v.AllNull:
		b.AppendNull()
		return
	case v.Boxed != nil:
		v.Boxed = append(v.Boxed, src.Boxed[i])
	case v.Type == expr.TFloat:
		v.Floats = Push(v.Floats, src.Floats[i])
	case v.Type == expr.TText:
		text := src.StrAt(i)
		v.StrBytes = append(reserve(v.StrBytes, len(text)), text...)
		v.StrOff = Push(v.StrOff, uint32(len(v.StrBytes)))
	case v.Type == expr.TBool:
		b.appendBool(src.Bool(i))
	default:
		v.Ints = Push(v.Ints, src.Ints[i])
	}
	b.n++
}

// AppendVector appends the selected rows of src (nil sel: its first n
// rows) in order.
func (b *Builder) AppendVector(src *Vector, sel []int32, n int) {
	if sel == nil {
		sel = Iota(n)
	}
	b.grow(src, sel)
	v := &b.Vec
	if src.Nulls == nil && !src.AllNull {
		switch v.Type {
		case expr.TBigInt, expr.TTimestamp:
			for _, i := range sel {
				v.Ints = append(v.Ints, src.Ints[i])
			}
			b.n += len(sel)
			return
		case expr.TFloat:
			for _, i := range sel {
				v.Floats = append(v.Floats, src.Floats[i])
			}
			b.n += len(sel)
			return
		}
	}
	for _, i := range sel {
		b.AppendCell(src, int(i))
	}
}

// grow makes room for the selected rows of src, at least doubling
// what is full, so a column appended batch by batch copies each cell a
// constant number of times. Text without codes reserves the
// selection's share of the bytes between its first and last entries:
// the exact count for a dense selection.
func (b *Builder) grow(src *Vector, sel []int32) {
	text := 0
	plain := src.Codes8 == nil && src.Codes16 == nil && src.Codes32 == nil
	if n := len(sel); n > 0 && sel[n-1] >= sel[0] && src.Type == expr.TText && !src.AllNull && plain {
		text = int(src.StrOff[sel[n-1]])
		if sel[0] > 0 {
			text -= int(src.StrOff[sel[0]-1])
		}
		text = text * n / int(sel[n-1]-sel[0]+1)
	}
	switch v, n := &b.Vec, len(sel); {
	case v.AllNull, v.Type == expr.TBool:
	case v.Boxed != nil:
		v.Boxed = reserve(v.Boxed, n)
	case v.Type == expr.TFloat:
		v.Floats = reserve(v.Floats, n)
	case v.Type == expr.TText:
		v.StrOff = reserve(v.StrOff, n)
		v.StrBytes = reserve(v.StrBytes, text)
	default:
		v.Ints = reserve(v.Ints, n)
	}
}
