package column

import (
	"testing"

	"repro/internal/keypath"
)

// FuzzDictColumn drives arbitrary bytes through the dictionary codec:
// any buffer Deserialize accepts must survive a full read of every
// row, re-serialize, deserialize again, and compare value-for-value —
// including through the split codes/dict path that segment blocks use.
func FuzzDictColumn(f *testing.F) {
	dict := buildTextColumn(
		[]string{"info", "warn", "info", "error", "", "info"},
		map[int]bool{4: true})
	if !dict.DictEncode(6) {
		f.Fatal("seed encode")
	}
	f.Add(dict.Serialize())
	arena := buildTextColumn([]string{"a", "bb", "ccc"}, nil)
	f.Add(arena.Serialize())
	allNull := New(keypath.TypeString)
	allNull.AppendNull()
	allNull.AppendNull()
	allNull.DictEncode(2)
	f.Add(allNull.Serialize())
	f.Add([]byte{dictMarker | byte(keypath.TypeString), 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Deserialize(data)
		if err != nil || c.Len() > 8*len(data) {
			return // a Bool column's lazy bitmaps may claim rows no byte holds
		}
		// Serialize → Deserialize must reproduce every row, of any type.
		rt, err := Deserialize(c.Serialize())
		if err != nil {
			t.Fatalf("re-deserialize: %v", err)
		}
		compare := func(label string, got *Column) {
			t.Helper()
			if got.Len() != c.Len() {
				t.Fatalf("%s: len %d, want %d", label, got.Len(), c.Len())
			}
			for i := 0; i < c.Len(); i++ {
				if v, w := got.Value(i), c.Value(i); v.Null != w.Null || v.Typ != w.Typ || v.String() != w.String() {
					t.Fatalf("%s row %d: %v, want %v", label, i, v, w)
				}
			}
		}
		compare("full", rt)
		if c.Dict {
			rt2, err := DeserializeDict(c.SerializeCodes(), c.SerializeDict())
			if err != nil {
				t.Fatalf("split round trip: %v", err)
			}
			compare("split", rt2)
		}
	})
}
