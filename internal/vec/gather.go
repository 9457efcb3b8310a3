package vec

import "repro/internal/expr"

// nullBits returns dst's null bitmap zeroed for n rows.
func nullBits(buf []uint64, n int) []uint64 {
	buf = Resize(buf, (n+63)>>6)
	clear(buf)
	return buf
}

// Buf is the reusable backing of one vector a kernel produces per
// batch (a gathered join column, an arithmetic result, an expression
// evaluated cell by cell): the buffers survive between batches, the
// vector handed out is rebuilt from them each time and is valid until
// the next use, or until Release hands the buffers to the recycler.
type Buf struct {
	ints   []int64
	floats []float64
	bits   []uint64
	nulls  []uint64
	boxed  []expr.Value
	idx    []int32
	codes  []uint32
	cells  *Writer // rowVal's, made on first use
	out    Vector
}

// Release hands the buffers' arrays to the recycler and empties b;
// the vector last handed out must not be read after.
func (b *Buf) Release() {
	Recycle(b.ints)
	Recycle(b.floats)
	Recycle(b.bits)
	Recycle(b.nulls)
	Recycle(b.idx)
	Recycle(b.codes)
	*b = Buf{}
}

// nullSetter returns a function that marks a row of an n-row result
// NULL in the buffer's bitmap, which starts as the union of the seed
// bitmaps; finish gives the bitmap to attach (nil when it is empty,
// so null-free fast paths still apply).
func (b *Buf) nullSetter(n int, seeds ...[]uint64) (set func(i int32), finish func() []uint64) {
	b.nulls = nullBits(b.nulls, n)
	any := false
	for _, s := range seeds {
		for w := 0; w < len(s) && w < len(b.nulls); w++ {
			b.nulls[w] |= s[w]
		}
		any = any || len(s) > 0
	}
	return func(i int32) {
			b.nulls[i>>6] |= 1 << (uint(i) & 63)
			any = true
		}, func() []uint64 {
			if any {
				return b.nulls
			}
			return nil
		}
}

// Gather returns a vector whose row p reads src row idx[p] for every
// selected position p (nil sel: all len(idx) positions); a negative
// index yields NULL. The result has len(idx) physical rows and keeps
// src's type and layout; text shares src's arena or dictionary
// instead of copying bytes, so the result is only valid as long as
// src's backing is.
func (b *Buf) Gather(src *Vector, idx, sel []int32) *Vector {
	n := len(idx)
	if sel == nil {
		sel = Iota(n)
	}
	out := Vector{Type: src.Type}
	setNull, nulls := b.nullSetter(n)
	switch {
	case src.AllNull:
		out.AllNull = true
	case src.Boxed != nil:
		b.boxed = Resize(b.boxed, max(n, 1))
		out.Boxed = b.boxed[:n]
		for _, p := range sel {
			if r := idx[p]; r >= 0 {
				out.Boxed[p] = src.Boxed[r]
			} else {
				out.Boxed[p] = expr.NullValue()
			}
		}
	case src.Type == expr.TText && src.Dict:
		out.Dict, out.DictOff, out.DictBytes = true, src.DictOff, src.DictBytes
		b.codes = Resize(b.codes, n)
		out.Codes32 = b.codes
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				out.Codes32[p] = 0
				setNull(p)
			} else {
				out.Codes32[p] = src.CodeAt(int(r))
			}
		}
	case src.Type == expr.TText:
		out.StrOff, out.StrBytes = src.StrOff, src.StrBytes
		b.idx = Resize(b.idx, max(n, 1))
		out.StrIdx = b.idx[:n]
		for _, p := range sel {
			r := idx[p]
			if r < 0 || src.IsNull(int(r)) {
				out.StrIdx[p] = 0
				setNull(p)
				continue
			}
			if src.StrIdx != nil {
				r = src.StrIdx[r]
			}
			out.StrIdx[p] = r
		}
	case src.Type == expr.TFloat:
		b.floats = Resize(b.floats, n)
		out.Floats = b.floats
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				setNull(p)
			} else {
				out.Floats[p] = src.Floats[r]
			}
		}
	case src.Type == expr.TBool:
		b.bits = nullBits(b.bits, n)
		out.Bools = b.bits
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				setNull(p)
			} else if src.Bool(int(r)) {
				out.Bools[p>>6] |= 1 << (uint(p) & 63)
			}
		}
	default:
		b.ints = Resize(b.ints, n)
		out.Ints = b.ints
		for _, p := range sel {
			if r := idx[p]; r < 0 || src.IsNull(int(r)) {
				setNull(p)
			} else {
				out.Ints[p] = src.Ints[r]
			}
		}
	}
	out.Nulls = nulls()
	b.out = out
	return &b.out
}
