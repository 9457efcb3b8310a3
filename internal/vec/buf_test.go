package vec

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/jsonb"
)

// TestVectorLayout pins the size of a vector and of its reusable
// buffer: text has one layout (an arena and at most one code slice),
// so a vector is ten slice headers and three small fields, and a Buf
// is a vector, its length so far, the length Reset set and one buffer
// set.
func TestVectorLayout(t *testing.T) {
	if n := unsafe.Sizeof(Vector{}); n > 248 {
		t.Errorf("Vector is %d B, want at most 248", n)
	}
	if n := unsafe.Sizeof(Buf{}); n > 432 {
		t.Errorf("Buf is %d B, want at most 432", n)
	}
}

// appendValues returns a vector of type t holding cells, appended to a
// Buf one by one.
func appendValues(t expr.SQLType, cells []expr.Value) *Vector {
	var b Buf
	b.Reset(t, 0)
	for _, x := range cells {
		b.Value(b.Len(), x)
	}
	return b.Vector()
}

// scalarTypes are the types a Buf keeps unboxed, in a bitmap of NULLs.
var scalarTypes = []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TBool, expr.TText, expr.TTimestamp}

// TestBufWrittenOnEveryRowHasNoNulls: a vector whose every row was
// written, after Reset or by appends, has no null bitmap, so the
// kernels' null-free loops apply to it.
func TestBufWrittenOnEveryRowHasNoNulls(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, typ := range scalarTypes {
		for _, size := range []int{150, 0} {
			cells := randCells(r, typ, 150)
			var b Buf
			b.Reset(typ, size)
			for i, x := range cells {
				for x.Null {
					x = cells[r.Intn(len(cells))]
				}
				b.Value(i, x)
			}
			if v := b.Vector(); v.Nulls != nil || b.Len() != len(cells) {
				t.Errorf("%s, Reset to %d rows: %d rows, null bitmap %v", typ, size, b.Len(), v.Nulls)
			}
			b.Release()
		}
	}
}

// TestBufUnwrittenRowsReadNull: rows passed over between writes, and
// rows after the last write up to the length Reset set, read NULL, also
// across whole bitmap words; a vector is as long as its last row
// written or the length Reset set, whichever is more. Rows are written
// at Len plus a gap, by Value and by AppendCell and AppendVector.
func TestBufUnwrittenRowsReadNull(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, typ := range scalarTypes {
		for round := 0; round < 20; round++ {
			size := []int{0, 1 + r.Intn(300)}[round%2]
			src := randCells(r, typ, 100)
			srcVec := appendValues(typ, src)
			want := make([]expr.Value, 0, size)
			var b Buf
			b.Reset(typ, size)
			for step := 0; step < 8; step++ {
				gap := []int{0, 1, 63, 64, 70}[r.Intn(5)]
				for range gap {
					want = append(want, expr.NullValue())
				}
				switch k := r.Intn(len(src)); r.Intn(3) {
				case 0:
					b.Value(b.Len()+gap, src[k])
					want = append(want, src[k])
				case 1:
					if gap > 0 { // the rows below it passed over, it written NULL
						b.Value(b.Len()+gap-1, expr.NullValue())
					}
					b.AppendCell(srcVec, k)
					want = append(want, src[k])
				default:
					if gap > 0 {
						b.Value(b.Len()+gap-1, expr.NullValue())
					}
					sel := []int32{int32(k), int32(k+1) % 100}
					b.AppendVector(srcVec, sel, 0)
					want = append(want, src[sel[0]], src[sel[1]])
				}
			}
			for len(want) < size {
				want = append(want, expr.NullValue())
			}
			v := b.Vector()
			if b.Len() != len(want) {
				t.Fatalf("%s round %d: %d rows, want %d", typ, round, b.Len(), len(want))
			}
			anyNull := false
			for i, x := range want {
				anyNull = anyNull || x.Null
				if got := v.Value(i); got.Null != x.Null || got.String() != x.String() {
					t.Fatalf("%s round %d row %d: %v, want %v", typ, round, i, got, x)
				}
			}
			if (v.Nulls != nil) != anyNull {
				t.Fatalf("%s round %d: null bitmap %v with a NULL row %v", typ, round, v.Nulls != nil, anyNull)
			}
			b.Release()
		}
	}
}

// TestBufMatchesValues writes random cells of every type, skipping
// rows, through one Buf reset from type to type and from size to
// size: every row reads back the value written, or NULL where none was,
// only ::JSON comes boxed, and no backing of an earlier type is left on
// the vector.
func TestBufMatchesValues(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	types := []expr.SQLType{expr.TText, expr.TBigInt, expr.TBool, expr.TFloat, expr.TTimestamp, expr.TJSON}
	var w Buf
	for round := 0; round < 60; round++ {
		typ, n := types[round%len(types)], r.Intn(200)
		cells := randCells(r, typ, n)
		w.Reset(typ, n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 { // never written: stays NULL
				cells[i] = expr.NullValue()
				continue
			}
			w.Value(i, cells[i])
		}
		v := w.Vector()
		if (v.Boxed != nil) != (typ == expr.TJSON) {
			t.Fatalf("round %d %s: boxed %v", round, typ, v.Boxed != nil)
		}
		backings := 0
		for _, set := range []bool{v.Ints != nil, v.Floats != nil, v.Bools != nil, v.StrOff != nil, v.Boxed != nil} {
			if set {
				backings++
			}
		}
		if backings != 1 {
			t.Fatalf("round %d %s: %d backings set", round, typ, backings)
		}
		for i := 0; i < n; i++ {
			// As strings: a NaN is not DeepEqual to itself.
			if got, want := v.Value(i), cells[i]; got.Typ != want.Typ || got.String() != want.String() {
				t.Fatalf("round %d %s row %d: %v, want %v", round, typ, i, got, want)
			}
		}
	}
}

// TestBufDropForgetsDocuments: Drop clears the boxed cells, so a
// pooled buffer pins no document.
func TestBufDropForgetsDocuments(t *testing.T) {
	var w Buf
	w.Reset(expr.TJSON, 3)
	w.Value(1, expr.JSONValue(jsonb.NewDoc([]byte{0})))
	w.Drop()
	if w.Vector().Boxed != nil {
		t.Fatal("a dropped buffer still hands out its boxed cells")
	}
	for i, x := range w.boxed[:cap(w.boxed)] {
		if !reflect.DeepEqual(x, expr.Value{}) {
			t.Fatalf("cell %d is %+v after Drop", i, x)
		}
	}
}

// TestTextWritesAfterGatherKeepTheSource: a text Gather leaves the
// source's arena in the buffer's vector. Text written after the next
// Reset goes into the buffer's own arena, so an appended arena — and a
// storage column's — stays byte for byte what it was, also when the
// writes run past its capacity and arrays go through the recycler.
func TestTextWritesAfterGatherKeepTheSource(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		t.Run(fmt.Sprintf("poisoned=%v", poisoned), func(t *testing.T) {
			if poisoned {
				defer PoisonReleased()()
			}
			var buf Buf
			buf.Reset(expr.TText, 0)
			for i := 0; i < 5; i++ {
				buf.Value(i, expr.TextValue(fmt.Sprintf("row %d", i)))
			}
			defer buf.Release()
			src := buf.Vector()
			arena := slices.Clone(src.StrBytes[:cap(src.StrBytes)])
			offsets := slices.Clone(src.StrOff[:cap(src.StrOff)])
			var b Buf
			defer b.Release()
			g := b.Gather(src, []int32{4, -1, 0}, nil)
			if string(g.StrAt(0)) != "row 4" || !g.IsNull(1) || string(g.StrAt(2)) != "row 0" {
				t.Fatalf("gathered %q, NULL %v, %q", g.StrAt(0), g.IsNull(1), g.StrAt(2))
			}
			n := cap(src.StrBytes) // rows of 3 bytes: past the source's capacity
			b.Reset(expr.TText, n)
			for i := 0; i < n; i++ {
				b.Text(i, []byte("abc"))
			}
			v := b.Vector()
			for i := 0; i < n; i++ {
				if string(v.StrAt(i)) != "abc" {
					t.Fatalf("written row %d reads %q", i, v.StrAt(i))
				}
			}
			if !bytes.Equal(src.StrBytes[:cap(src.StrBytes)], arena) || !slices.Equal(src.StrOff[:cap(src.StrOff)], offsets) {
				t.Fatal("text written after a gather changed the source's arena")
			}
		})
	}
}

// TestWarmGatherAndArithAllocateNothing: once its buffers have grown,
// a Gather and a BigInt+Float arithmetic evaluation write their NULL
// bits straight into their buffer and allocate nothing.
func TestWarmGatherAndArithAllocateNothing(t *testing.T) {
	const n = 200
	ints, floats := make([]int64, n), make([]float64, n)
	nulls, idx := make([]uint64, (n+63)>>6), make([]int32, n)
	for i := range ints {
		ints[i], floats[i], idx[i] = int64(i), float64(i)/2, int32(n-1-i)
		if i%7 == 0 {
			nulls[i>>6] |= 1 << (uint(i) & 63)
		}
		if i%5 == 0 {
			idx[i] = -1
		}
	}
	b := &Batch{Len: n, Cols: []Vector{
		{Type: expr.TBigInt, Ints: ints, Nulls: nulls},
		{Type: expr.TFloat, Floats: floats},
	}}
	var g Buf
	if a := testing.AllocsPerRun(20, func() { g.Gather(&b.Cols[0], idx, nil) }); a != 0 {
		t.Errorf("a warm Gather allocates %v times, want 0", a)
	}
	for p, r := range idx {
		if want := r < 0 || b.Cols[0].IsNull(int(r)); g.Vector().IsNull(p) != want {
			t.Fatalf("gathered row %d: NULL %v, want %v", p, !want, want)
		}
	}
	c := CompileExpr(expr.NewArith(expr.Add, expr.NewCol(0, expr.TBigInt), expr.NewCol(1, expr.TFloat)))
	sc := c.NewScratch()
	if a := testing.AllocsPerRun(20, func() { c.Eval(b, sc) }); a != 0 {
		t.Errorf("a warm BigInt+Float Eval allocates %v times, want 0", a)
	}
	if v := c.Eval(b, sc); !v.IsNull(0) || v.IsNull(1) || v.Floats[1] != 1.5 {
		t.Fatalf("BigInt+Float: rows 0 and 1 read %v and %v", v.Value(0), v.Value(1))
	}
}

// BenchmarkBufIntGaps writes 2 rows of every 5 into a 1024-row BigInt
// vector, as a scan fills an access that some documents lack: every
// other write passes over three rows.
func BenchmarkBufIntGaps(b *testing.B) {
	var buf Buf
	for range b.N {
		buf.Reset(expr.TBigInt, 1024)
		for i := 0; i < 1024; i++ {
			if i%5 < 2 {
				buf.Int(i, int64(i))
			}
		}
		buf.Vector()
	}
}
