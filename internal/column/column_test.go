package column

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/keypath"
)

// text is row i of text column c, "" for a NULL row.
func text(c *Column, i int) string {
	if c.IsNull(i) {
		return ""
	}
	return string(c.StrAt(i))
}

func TestIntColumn(t *testing.T) {
	c := New(keypath.TypeBigInt)
	c.AppendInt(10)
	c.AppendNull()
	c.AppendInt(-5)
	if c.Len() != 3 || c.Type() != keypath.TypeBigInt {
		t.Fatalf("len=%d type=%v", c.Len(), c.Type())
	}
	if c.Int(0) != 10 || c.Int(2) != -5 {
		t.Error("values wrong")
	}
	if c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) {
		t.Error("null bitmap wrong")
	}
	if c.NullCount() != 1 {
		t.Error("null accounting wrong")
	}
}

func TestStringColumn(t *testing.T) {
	c := New(keypath.TypeString)
	c.AppendString("hello")
	c.AppendString("")
	c.AppendNull()
	c.AppendString("world")
	want := []string{"hello", "", "", "world"}
	for i, w := range want {
		if got := text(c, i); got != w {
			t.Errorf("text(%d) = %q, want %q", i, got, w)
		}
	}
	if !c.IsNull(2) || c.IsNull(1) {
		t.Error("null vs empty-string confusion")
	}
}

func TestFloatAndBoolColumns(t *testing.T) {
	f := New(keypath.TypeDouble)
	f.AppendFloat(1.5)
	f.AppendNull()
	if f.Float(0) != 1.5 || !f.IsNull(1) {
		t.Error("float column wrong")
	}
	b := New(keypath.TypeBool)
	b.AppendBool(true)
	b.AppendBool(false)
	b.AppendNull()
	b.AppendBool(true)
	if !b.Bool(0) || b.Bool(1) || !b.Bool(3) {
		t.Error("bool column wrong")
	}
	if !b.IsNull(2) {
		t.Error("bool null wrong")
	}
}

func TestSetInPlace(t *testing.T) {
	c := New(keypath.TypeBigInt)
	c.AppendNull()
	c.AppendInt(1)
	c.SetInt(0, 99) // null -> value
	if c.IsNull(0) || c.Int(0) != 99 {
		t.Error("SetInt on null row failed")
	}
	c.SetNull(1)
	if !c.IsNull(1) {
		t.Error("SetNull failed")
	}
	f := New(keypath.TypeDouble)
	f.AppendFloat(1)
	f.SetFloat(0, 2.5)
	if f.Float(0) != 2.5 {
		t.Error("SetFloat failed")
	}
}

func TestNullBitmapAcrossWords(t *testing.T) {
	c := New(keypath.TypeBigInt)
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			c.AppendNull()
		} else {
			c.AppendInt(int64(i))
		}
	}
	for i := 0; i < 200; i++ {
		if got := c.IsNull(i); got != (i%3 == 0) {
			t.Fatalf("IsNull(%d) = %v", i, got)
		}
	}
	if c.NullCount() != 67 {
		t.Errorf("NullCount = %d", c.NullCount())
	}
}

func TestSerializeAndCompress(t *testing.T) {
	c := New(keypath.TypeString)
	for i := 0; i < 500; i++ {
		c.AppendString("repetitive-value")
	}
	raw := c.Serialize()
	if len(raw) == 0 {
		t.Fatal("empty serialization")
	}
	if cs := c.CompressedSize(); cs >= len(raw) {
		t.Errorf("compression did not help: %d -> %d", len(raw), cs)
	}
	if c.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
}

// Property: appended values read back identically in order.
func TestQuickAppendRead(t *testing.T) {
	f := func(vals []int64, nullMask []bool) bool {
		c := New(keypath.TypeBigInt)
		expect := make([]struct {
			v    int64
			null bool
		}, 0, len(vals))
		for i, v := range vals {
			null := i < len(nullMask) && nullMask[i]
			if null {
				c.AppendNull()
			} else {
				c.AppendInt(v)
			}
			expect = append(expect, struct {
				v    int64
				null bool
			}{v, null})
		}
		for i, e := range expect {
			if c.IsNull(i) != e.null {
				return false
			}
			if !e.null && c.Int(i) != e.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Serialize → Deserialize must restore an identical column for every
// type, including lazily-grown (short) bitmaps and empty columns.
func TestSerializeRoundTrip(t *testing.T) {
	build := map[string]func() *Column{
		"bigint": func() *Column {
			c := New(keypath.TypeBigInt)
			c.AppendInt(-5)
			c.AppendNull()
			c.AppendInt(1 << 40)
			return c
		},
		"double": func() *Column {
			c := New(keypath.TypeDouble)
			c.AppendFloat(3.25)
			c.AppendFloat(-0.5)
			c.AppendNull()
			return c
		},
		"bool-no-bitmaps": func() *Column {
			c := New(keypath.TypeBool)
			c.AppendBool(false)
			c.AppendBool(false)
			return c
		},
		"bool-mixed": func() *Column {
			c := New(keypath.TypeBool)
			c.AppendBool(true)
			c.AppendNull()
			c.AppendBool(false)
			c.AppendBool(true)
			return c
		},
		"text": func() *Column {
			c := New(keypath.TypeString)
			c.AppendString("hello")
			c.AppendNull()
			c.AppendString("")
			c.AppendString("worldly")
			return c
		},
		"timestamp": func() *Column {
			c := New(keypath.TypeTimestamp)
			c.AppendInt(1600000000000000)
			c.AppendNull()
			return c
		},
		"empty": func() *Column { return New(keypath.TypeBigInt) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			c := mk()
			got, err := Deserialize(c.Serialize(), c.Len())
			if err != nil {
				t.Fatalf("deserialize: %v", err)
			}
			if got.Type() != c.Type() || got.Len() != c.Len() {
				t.Fatalf("type/len = %v/%d, want %v/%d", got.Type(), got.Len(), c.Type(), c.Len())
			}
			for i := 0; i < c.Len(); i++ {
				if got.IsNull(i) != c.IsNull(i) {
					t.Fatalf("row %d null mismatch", i)
				}
				if c.IsNull(i) {
					continue
				}
				switch c.Type() {
				case keypath.TypeBigInt, keypath.TypeTimestamp:
					if got.Int(i) != c.Int(i) {
						t.Fatalf("row %d int mismatch", i)
					}
				case keypath.TypeDouble:
					if got.Float(i) != c.Float(i) {
						t.Fatalf("row %d float mismatch", i)
					}
				case keypath.TypeBool:
					if got.Bool(i) != c.Bool(i) {
						t.Fatalf("row %d bool mismatch", i)
					}
				case keypath.TypeString:
					if text(got, i) != text(c, i) {
						t.Fatalf("row %d string mismatch", i)
					}
				}
			}
		})
	}
}

// Truncations and bit flips of a valid serialization must never panic;
// they either error or decode to some well-formed column.
func TestDeserializeCorrupt(t *testing.T) {
	c := New(keypath.TypeString)
	c.AppendString("abc")
	c.AppendString("defg")
	c.AppendNull()
	buf := c.Serialize()
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Deserialize(buf[:cut], c.Len()); err == nil {
			t.Fatalf("truncation at %d: want error", cut)
		}
	}
	for i := 0; i < len(buf); i++ {
		cp := append([]byte(nil), buf...)
		cp[i] ^= 0xFF
		col, err := Deserialize(cp, c.Len()) // must not panic
		if err == nil && col.Len() > 0 {
			_ = col.IsNull(0)
		}
	}
	if _, err := Deserialize(nil, 0); err == nil {
		t.Fatal("nil input: want error")
	}
}

// TestDeserializeRefusesRowsItDoesNotExpect: a payload whose row count
// is not the caller's is corrupt, also when no byte would have to back
// its rows: 13 bytes (a Bool column of 2^28 rows with two empty
// bitmaps) are refused, not decoded into a column that size.
func TestDeserializeRefusesRowsItDoesNotExpect(t *testing.T) {
	huge := []byte{byte(keypath.TypeBool), 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0}
	for _, rows := range []int{0, 2} {
		if c, err := Deserialize(huge, rows); !errors.Is(err, ErrCorrupt) {
			t.Errorf("expecting %d rows: decoded %v, error %v", rows, c, err)
		}
	}
	c := buildTextColumn([]string{"a", "b", "a"}, nil)
	if !c.DictEncode(3) {
		t.Fatal("encode")
	}
	if _, err := Deserialize(c.Serialize(), 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a 3-row dictionary column read as 4 rows: error %v", err)
	}
	if _, err := DeserializeDict(c.SerializeCodes(), c.SerializeDict(), 2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a 3-row dictionary column read as 2 rows: error %v", err)
	}
}
