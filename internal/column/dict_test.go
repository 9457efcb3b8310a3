package column

import (
	"fmt"
	"testing"

	"repro/internal/keypath"
)

func buildTextColumn(vals []string, nulls map[int]bool) *Column {
	c := New(keypath.TypeString)
	for i, v := range vals {
		if nulls[i] {
			c.AppendNull()
		} else {
			c.AppendString(v)
		}
	}
	return c
}

func checkSameValues(t *testing.T, want, got *Column) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("row %d: null = %v, want %v", i, got.IsNull(i), want.IsNull(i))
		}
		if !want.IsNull(i) && text(got, i) != text(want, i) {
			t.Fatalf("row %d: %q, want %q", i, text(got, i), text(want, i))
		}
	}
}

func TestDictEncodeRoundTrip(t *testing.T) {
	vals := []string{"warn", "info", "error", "info", "", "warn", "info", "debug", ""}
	arena := buildTextColumn(vals, map[int]bool{4: true})
	dict := buildTextColumn(vals, map[int]bool{4: true})
	if !dict.DictEncode(len(vals)) {
		t.Fatal("DictEncode refused")
	}
	if !dict.Dict || arena.Dict {
		t.Fatal("Dict mismatch")
	}
	if dict.DictLen() != 5 { // "", debug, error, info, warn
		t.Fatalf("DictLen = %d, want 5", dict.DictLen())
	}
	for k := 1; k < dict.DictLen(); k++ {
		if string(dict.DictEntry(k-1)) >= string(dict.DictEntry(k)) {
			t.Fatalf("dict not sorted at %d", k)
		}
	}
	checkSameValues(t, arena, dict)

	// Full-buffer round trip.
	rt, err := Deserialize(dict.Serialize(), dict.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Dict {
		t.Fatal("round trip lost dict layout")
	}
	checkSameValues(t, arena, rt)

	// Split codes/dict round trip (the segment block layout).
	rt2, err := DeserializeDict(dict.SerializeCodes(), dict.SerializeDict(), dict.Len())
	if err != nil {
		t.Fatal(err)
	}
	checkSameValues(t, arena, rt2)
}

func TestDictEncodeFallback(t *testing.T) {
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = fmt.Sprintf("unique-%03d", i)
	}
	c := buildTextColumn(vals, nil)
	if c.DictEncode(50) {
		t.Fatal("DictEncode should refuse when NDV exceeds the cap")
	}
	if c.Dict {
		t.Fatal("failed encode must leave arena layout")
	}
	if text(c, 7) != "unique-007" {
		t.Fatal("arena damaged by refused encode")
	}
	wrongType := New(keypath.TypeBigInt)
	wrongType.AppendInt(1)
	if wrongType.DictEncode(10) {
		t.Fatal("DictEncode on non-text column")
	}
}

func TestDictCodeWidths(t *testing.T) {
	for _, ndv := range []int{3, 300, 70000} {
		n := ndv * 2
		c := New(keypath.TypeString)
		for i := 0; i < n; i++ {
			c.AppendString(fmt.Sprintf("v%06d", i%ndv))
		}
		if !c.DictEncode(ndv) {
			t.Fatalf("ndv %d: refused", ndv)
		}
		width := c.codeWidth()
		want := uint8(1)
		if ndv > 1<<8 {
			want = 2
		}
		if ndv > 1<<16 {
			want = 4
		}
		if width != want {
			t.Fatalf("ndv %d: width = %d, want %d", ndv, width, want)
		}
		if c.DictLen() != ndv {
			t.Fatalf("ndv %d: DictLen = %d", ndv, c.DictLen())
		}
		rt, err := Deserialize(c.Serialize(), c.Len())
		if err != nil {
			t.Fatalf("ndv %d: %v", ndv, err)
		}
		for _, i := range []int{0, 1, n / 2, n - 1} {
			if text(rt, i) != fmt.Sprintf("v%06d", i%ndv) {
				t.Fatalf("ndv %d row %d: %q", ndv, i, text(rt, i))
			}
		}
	}
}

func TestDictAllNull(t *testing.T) {
	c := New(keypath.TypeString)
	for i := 0; i < 5; i++ {
		c.AppendNull()
	}
	if !c.DictEncode(10) {
		t.Fatal("all-null column should dict-encode")
	}
	if c.DictLen() != 0 {
		t.Fatalf("DictLen = %d, want 0", c.DictLen())
	}
	rt, err := Deserialize(c.Serialize(), c.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !rt.IsNull(i) || text(rt, i) != "" {
			t.Fatalf("row %d not null after round trip", i)
		}
	}
}

func TestDictDeserializeRejectsCorrupt(t *testing.T) {
	c := buildTextColumn([]string{"a", "b", "a", "c"}, nil)
	if !c.DictEncode(4) {
		t.Fatal("encode")
	}
	good := c.Serialize()
	if _, err := Deserialize(good, c.Len()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		for _, delta := range []byte{1, 0x80, 0xff} {
			mut := append([]byte(nil), good...)
			mut[i] ^= delta
			col, err := Deserialize(mut, c.Len())
			if err != nil {
				continue
			}
			// Accepted mutants must still be fully readable.
			for r := 0; r < col.Len(); r++ {
				_ = col.IsNull(r)
				_ = text(col, r)
			}
		}
	}
	// Truncations must never be accepted as the original.
	for i := 0; i < len(good); i++ {
		if _, err := Deserialize(good[:i], c.Len()); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestDictAppendNullAfterEncode(t *testing.T) {
	c := buildTextColumn([]string{"x", "y"}, nil)
	if !c.DictEncode(2) {
		t.Fatal("encode")
	}
	c.AppendNull()
	if c.Len() != 3 || !c.IsNull(2) || text(c, 2) != "" {
		t.Fatal("AppendNull on dict column broken")
	}
	if _, err := Deserialize(c.Serialize(), c.Len()); err != nil {
		t.Fatal(err)
	}
}
