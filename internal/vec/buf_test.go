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
// is a vector plus one buffer set.
func TestVectorLayout(t *testing.T) {
	if n := unsafe.Sizeof(Vector{}); n > 248 {
		t.Errorf("Vector is %d B, want at most 248", n)
	}
	if n := unsafe.Sizeof(Buf{}); n > 424 {
		t.Errorf("Buf is %d B, want at most 424", n)
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
// Reset goes into the buffer's own arena, so a builder's arena — and a
// storage column's — stays byte for byte what it was, also when the
// writes run past its capacity and arrays go through the recycler.
func TestTextWritesAfterGatherKeepTheSource(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		t.Run(fmt.Sprintf("poisoned=%v", poisoned), func(t *testing.T) {
			if poisoned {
				defer PoisonReleased()()
			}
			src := NewBuilder(expr.TText)
			for i := 0; i < 5; i++ {
				src.AppendValue(expr.TextValue(fmt.Sprintf("row %d", i)))
			}
			defer src.Release()
			arena := slices.Clone(src.Vec.StrBytes[:cap(src.Vec.StrBytes)])
			offsets := slices.Clone(src.Vec.StrOff[:cap(src.Vec.StrOff)])
			var b Buf
			defer b.Release()
			g := b.Gather(&src.Vec, []int32{4, -1, 0}, nil)
			if string(g.StrAt(0)) != "row 4" || !g.IsNull(1) || string(g.StrAt(2)) != "row 0" {
				t.Fatalf("gathered %q, NULL %v, %q", g.StrAt(0), g.IsNull(1), g.StrAt(2))
			}
			n := cap(src.Vec.StrBytes) // rows of 3 bytes: past the source's capacity
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
			if !bytes.Equal(src.Vec.StrBytes[:cap(src.Vec.StrBytes)], arena) || !slices.Equal(src.Vec.StrOff[:cap(src.Vec.StrOff)], offsets) {
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
