package vec

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsonb"
)

// TestWriterMatchesValues writes random cells of every type, skipping
// rows, through one Writer reset from type to type and from size to
// size: every row reads back the value written, or NULL where none was,
// only ::JSON comes boxed, and no backing of an earlier type is left on
// the vector.
func TestWriterMatchesValues(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	types := []expr.SQLType{expr.TText, expr.TBigInt, expr.TBool, expr.TFloat, expr.TTimestamp, expr.TJSON}
	var w Writer
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

// TestWriterReleaseDropsDocuments: Release clears the boxed cells, so a
// pooled writer pins no document.
func TestWriterReleaseDropsDocuments(t *testing.T) {
	var w Writer
	w.Reset(expr.TJSON, 3)
	w.Value(1, expr.JSONValue(jsonb.NewDoc([]byte{0})))
	w.Release()
	if w.Vector().Boxed != nil {
		t.Fatal("a released writer still hands out its boxed cells")
	}
	for i, x := range w.boxed[:cap(w.boxed)] {
		if !reflect.DeepEqual(x, expr.Value{}) {
			t.Fatalf("cell %d is %+v after Release", i, x)
		}
	}
}
