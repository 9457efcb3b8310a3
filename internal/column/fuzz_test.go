package column

import (
	"testing"

	"repro/internal/keypath"
)

// FuzzDictColumn drives arbitrary bytes and an expected row count
// through the dictionary codec: any buffer Deserialize accepts must
// survive a full read of every row, re-serialize, deserialize again,
// and compare value-for-value — including through the split codes/dict
// path that segment blocks use.
func FuzzDictColumn(f *testing.F) {
	dict := buildTextColumn(
		[]string{"info", "warn", "info", "error", "", "info"},
		map[int]bool{4: true})
	if !dict.DictEncode(6) {
		f.Fatal("seed encode")
	}
	f.Add(dict.Serialize(), uint16(dict.Len()))
	arena := buildTextColumn([]string{"a", "bb", "ccc"}, nil)
	f.Add(arena.Serialize(), uint16(arena.Len()))
	allNull := New(keypath.TypeString)
	allNull.AppendNull()
	allNull.AppendNull()
	allNull.DictEncode(2)
	f.Add(allNull.Serialize(), uint16(allNull.Len()))
	f.Add([]byte{dictMarker | byte(keypath.TypeString), 0, 0, 0, 0}, uint16(0))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, rows uint16) {
		c, err := Deserialize(data, int(rows))
		if err != nil {
			return
		}
		// Serialize → Deserialize must reproduce every row, of any type.
		rt, err := Deserialize(c.Serialize(), c.Len())
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
			rt2, err := DeserializeDict(c.SerializeCodes(), c.SerializeDict(), c.Len())
			if err != nil {
				t.Fatalf("split round trip: %v", err)
			}
			compare("split", rt2)
		}
	})
}
