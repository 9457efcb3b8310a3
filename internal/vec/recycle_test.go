package vec

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/expr"
)

// TestResizeHoldsWhatItIsAsked: every size is served, whichever class
// a recycled array came from, including arrays the runtime allocated
// with a capacity that is not a power of two.
func TestResizeHoldsWhatItIsAsked(t *testing.T) {
	Recycle(make([]int32, 0, 1536))
	for n := 1; n < 5000; n += 37 {
		s := Resize[int32](nil, n)
		if len(s) != n || cap(s) < n {
			t.Fatalf("Resize(nil, %d): len %d cap %d", n, len(s), cap(s))
		}
		for i := range s {
			s[i] = int32(i)
		}
		Recycle(s)
	}
}

// TestPoisonReleasedFillsSentinels: under the hook a released array
// reads as the sentinel of its type, so a stale reader sees it.
func TestPoisonReleasedFillsSentinels(t *testing.T) {
	defer PoisonReleased()()
	ints, floats, offs := Resize[int64](nil, 8), Resize[float64](nil, 8), Resize[uint32](nil, 8)
	for i := range 8 {
		ints[i], floats[i], offs[i] = int64(i), float64(i), uint32(i)
	}
	Recycle(ints)
	Recycle(floats)
	Recycle(offs)
	for i := range 8 {
		if ints[i] != -0x5a5a5a5a5a5a5a5b || !math.IsNaN(floats[i]) || offs[i] != 0xa5a5a5a5 {
			t.Fatalf("row %d after release: %x %v %x", i, ints[i], floats[i], offs[i])
		}
	}
	// Boxed cells are never recycled, so never overwritten.
	boxed := []expr.Value{expr.IntValue(1)}
	Recycle(boxed)
	if boxed[0].I != 1 {
		t.Fatalf("a boxed cell was overwritten: %v", boxed[0])
	}
}

// TestExtendZeroesWhatItAdds: a recycled array's old contents (here
// the sentinel) never show through Extend.
func TestExtendZeroesWhatItAdds(t *testing.T) {
	defer PoisonReleased()()
	Recycle(Resize[int64](nil, 64))
	s := Extend[int64](nil, 40)
	s = Extend(s[:10], 64)
	for i, x := range s {
		if x != 0 {
			t.Fatalf("element %d = %x, want 0", i, x)
		}
	}
}

// TestBufReleaseEmptiesIt: a released buffer is empty and, Reset,
// appends again from the recycler.
func TestBufReleaseEmptiesIt(t *testing.T) {
	defer PoisonReleased()()
	for _, typ := range []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TBool, expr.TJSON} {
		var b Buf
		for round := 0; round < 2; round++ {
			b.Reset(typ, 0)
			want := []expr.Value{expr.NullValue()}
			for i := 0; i < 100; i++ {
				switch typ {
				case expr.TBigInt:
					want = append(want, expr.IntValue(int64(i)))
				case expr.TFloat:
					want = append(want, expr.FloatValue(float64(i)/2))
				case expr.TText:
					want = append(want, expr.TextValue(string(rune('a'+i%26))))
				case expr.TBool:
					want = append(want, expr.BoolValue(i%3 == 0))
				default:
					want = append(want, expr.NullValue())
				}
			}
			for _, v := range want {
				b.Value(b.Len(), v)
			}
			if b.Len() != len(want) {
				t.Fatalf("%v round %d: %d cells, want %d", typ, round, b.Len(), len(want))
			}
			for i, v := range want {
				if got := b.Vector().Value(i); got.Null != v.Null || (!v.Null && got.String() != v.String()) {
					t.Fatalf("%v round %d row %d: %v, want %v", typ, round, i, got, v)
				}
			}
			b.Release()
			if v := b.Vector(); b.Len() != 0 || !reflect.DeepEqual(*v, Vector{}) {
				t.Fatalf("%v: released buffer holds %d cells, vector %+v", typ, b.Len(), *v)
			}
		}
	}
}
