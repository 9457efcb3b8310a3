package vec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/expr"
)

// shapeVector lays cells out as a typed, dictionary or all-NULL
// vector, chosen at random among the shapes that can hold them; ::JSON
// cells are boxed.
func shapeVector(r *rand.Rand, t expr.SQLType, cells []expr.Value) Vector {
	allNull := true
	for _, c := range cells {
		allNull = allNull && c.Null
	}
	switch {
	case allNull && r.Intn(2) == 0:
		return NullVector(t)
	case t == expr.TJSON:
		return Vector{Type: t, Boxed: cells}
	case t != expr.TText || r.Intn(2) == 0:
		return *appendValues(t, cells)
	}
	v := Vector{Type: t, Dict: true, Codes16: make([]uint16, len(cells))}
	var entries []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !c.Null && !seen[c.S] {
			seen[c.S] = true
			entries = append(entries, c.S)
		}
	}
	sort.Strings(entries)
	for _, e := range entries {
		v.StrBytes = append(v.StrBytes, e...)
		v.StrOff = append(v.StrOff, uint32(len(v.StrBytes)))
	}
	for i, c := range cells {
		if c.Null {
			for len(v.Nulls) <= i>>6 {
				v.Nulls = append(v.Nulls, 0)
			}
			v.Nulls[i>>6] |= 1 << (uint(i) & 63)
		} else {
			v.Codes16[i] = uint16(sort.SearchStrings(entries, c.S))
		}
	}
	return v
}

func keyCells(r *rand.Rand, t expr.SQLType, n int) []expr.Value {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1, math.Inf(-1)}
	texts := []string{"", "a", "a\x00", "\x00a", "b", "ab"}
	cells := make([]expr.Value, n)
	for i := range cells {
		switch {
		case r.Intn(5) == 0:
			cells[i] = expr.NullValue()
		case t == expr.TBigInt:
			cells[i] = expr.IntValue(int64(r.Intn(4)))
		case t == expr.TTimestamp:
			cells[i] = expr.TimestampValue(int64(r.Intn(4)))
		case t == expr.TFloat:
			cells[i] = expr.FloatValue(floats[r.Intn(len(floats))])
		case t == expr.TBool:
			cells[i] = expr.BoolValue(r.Intn(2) == 0)
		case t == expr.TJSON:
			cells[i] = jsonDocs[r.Intn(len(jsonDocs))]
		default:
			cells[i] = expr.TextValue(texts[r.Intn(len(texts))])
		}
	}
	return cells
}

// keyID is what makes two cells the same key.
func keyID(v expr.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Typ == expr.TFloat:
		return fmt.Sprintf("f%x", math.Float64bits(v.F))
	case v.Typ == expr.TBigInt, v.Typ == expr.TTimestamp:
		return fmt.Sprintf("%d/%d", v.Typ, v.I)
	}
	return fmt.Sprintf("%d/%q", v.Typ, v.String())
}

var keyTypes = []expr.SQLType{expr.TBigInt, expr.TTimestamp, expr.TFloat, expr.TBool, expr.TText, expr.TJSON}

// TestKeyKernelsAgreeAcrossShapes: whatever shapes two vectors have,
// cells are the same key exactly when type and payload agree, equal
// keys hash alike, the order is antisymmetric, and KeyEq, HashKeys and
// NotNullSel say the same as the per-cell functions.
func TestKeyKernelsAgreeAcrossShapes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		ta, tb := keyTypes[r.Intn(len(keyTypes))], keyTypes[r.Intn(len(keyTypes))]
		if r.Intn(3) > 0 {
			tb = ta
		}
		ca, cb := keyCells(r, ta, n), keyCells(r, tb, n)
		a, b := shapeVector(r, ta, ca), shapeVector(r, tb, cb)
		eq := KeyEq([]*Vector{&a}, []*Vector{&b})
		hashes := make([]uint64, n)
		HashKeys([]*Vector{&a}, Iota(n), hashes)
		for i := 0; i < n; i++ {
			if hashes[i] != HashCell(&a, i) {
				t.Fatalf("trial %d: HashKeys[%d] differs from HashCell", trial, i)
			}
			for j := 0; j < n; j++ {
				same := keyID(ca[i]) == keyID(cb[j])
				c := CompareKeyCells(&a, i, &b, j)
				if (c == 0) != same || eq(i, j) != same {
					t.Fatalf("trial %d: %v vs %v: compare %d, eq %v, want same=%v", trial, ca[i], cb[j], c, eq(i, j), same)
				}
				if same && HashCell(&a, i) != HashCell(&b, j) {
					t.Fatalf("trial %d: equal keys %v hash differently across shapes", trial, ca[i])
				}
				if back := CompareKeyCells(&b, j, &a, i); (c < 0) != (back > 0) {
					t.Fatalf("trial %d: order of %v and %v is not antisymmetric", trial, ca[i], cb[j])
				}
			}
		}
		var want []int32
		for i := 0; i < n; i++ {
			if !ca[i].Null && !cb[i].Null {
				want = append(want, int32(i))
			}
		}
		if got := NotNullSel([]*Vector{&a, &b}, Iota(n), nil); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: NotNullSel %v, want %v", trial, got, want)
		}
	}
}

// TestBuilderGatherRoundTrip: copying cells out of any vector shape
// with a Builder and gathering them (twice over, so text indirection
// composes) both preserve every cell.
func TestBufAppendGatherRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var gather, again Buf
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(60)
		typ := keyTypes[r.Intn(len(keyTypes))]
		cells := keyCells(r, typ, n)
		src := shapeVector(r, typ, cells)
		same := func(label string, got *Vector, i int, want expr.Value) {
			t.Helper()
			if have := got.Value(i); keyID(have) != keyID(want) {
				t.Fatalf("trial %d %s row %d: %v, want %v", trial, label, i, have, want)
			}
		}

		sel := []int32{}
		for i := 0; i < n; i++ {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		var b Buf
		b.Reset(typ, 0)
		b.Value(0, expr.NullValue())
		b.AppendVector(&src, sel, n)
		if b.Len() != 1+len(sel) || !b.Vector().IsNull(0) {
			t.Fatalf("trial %d: appended buffer holds %d cells", trial, b.Len())
		}
		for k, i := range sel {
			same("appended", b.Vector(), 1+k, cells[i])
		}

		idx := make([]int32, 1+r.Intn(50))
		for p := range idx {
			idx[p] = int32(r.Intn(n+1)) - 1
		}
		g := gather.Gather(&src, idx, nil)
		for p, from := range idx {
			want := expr.NullValue()
			if from >= 0 {
				want = cells[from]
			}
			same("gather", g, p, want)
		}
		idx2 := []int32{int32(len(idx) - 1), -1, 0}
		g2 := again.Gather(g, idx2, []int32{0, 2}) // position 1 is not selected
		same("gather of gather", g2, 0, g.Value(len(idx)-1))
		same("gather of gather", g2, 2, g.Value(0))
	}
}
