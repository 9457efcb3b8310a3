package jsonb

import (
	"bytes"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/jsontext"
)

var tapeEncodeDocs = []string{
	`null`, `true`, `false`, `0`, `7`, `8`, `-1`, `123456789012`,
	`2.5`, `-0.5e2`, `1e308`, `1e-999`, `3.14159265358979`,
	`""`, `"short"`, `"a longer string that exceeds the inline bound"`,
	`"12.50"`, `"-42"`, `"007"`, `"-0"`, `"9223372036854775807"`,
	`"é😀"`, `"tab\there"`,
	`{}`, `[]`, `[null,true,1,2.5,"x",[],{}]`,
	`{"b":1,"a":2}`, `{"a":1,"b":2}`, `{"dup":1,"dup":2}`,
	`{"outer":{"z":[1,{"y":"str"}],"a":{"deep":null}},"n":"12.50"}`,
	`{"id":1,"user":{"id":3,"tags":["a","b"]},"geo":null}`,
	`[{"a":[[]]},2,"x"]`,
	`{"k1":"v","k2":[1,2,3,4,5,6,7,8,9],"k3":{"s":"😀"},"":0}`,
	// Object shapes the encoder remembers: repeated keys, the same keys
	// in other orders, nested objects sharing a shape, and keys longer
	// than a hash word.
	`{"b":1,"a":2,"b":3}`, `{"a":1,"b":2,"a":3}`, `{"b":1,"a":2,"b":3,"a":4}`,
	`{"x":1,"y":2,"z":3}`, `{"z":1,"x":2,"y":3}`, `{"y":1,"z":2,"x":3}`, `{"z":1,"x":2,"y":3}`,
	`{"p":{"b":1,"a":2},"q":{"b":"3","a":[4]},"r":[{"b":5,"a":{"b":6,"a":7}}]}`,
	`{"l_shipdate_b":1,"l_shipdate_a":2,"l_ship":3}`, `{"l_shipdate_a":1,"l_ship":2,"l_shipdate_b":3}`,
	`{"l_shipdate_b":"x","l_shipdate_a":null,"l_ship":true}`,
}

// TestEncodeTapeMatchesEncode locks the tape encoder to the tree
// encoder byte for byte. One encoder takes the corpus twice, so every
// object shape is met both new and remembered, and then again with
// every shape hash colliding.
func TestEncodeTapeMatchesEncode(t *testing.T) {
	check := func(e *Encoder) {
		t.Helper()
		for _, src := range tapeEncodeDocs {
			v, err := jsontext.Parse([]byte(src))
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			var d jsontape.Doc
			if err := jsontape.Parse([]byte(src), &d); err != nil {
				t.Fatalf("tape parse %q: %v", src, err)
			}
			want := Encode(v)
			got := e.EncodeTape(&d)
			if !bytes.Equal(got, want) {
				t.Errorf("%q: tape encoding differs\n got=%x\nwant=%x", src, got, want)
			}
			if !Valid(got) {
				t.Errorf("%q: tape encoding invalid", src)
			}
			if !NewDoc(got).Decode().Equal(v) {
				t.Errorf("%q: tape encoding does not round trip", src)
			}
		}
	}
	var e Encoder
	check(&e)
	check(&e)
	if len(e.shapes) < 10 {
		t.Errorf("the encoder remembers %d object shapes, want at least 10", len(e.shapes))
	}

	defer func(h func([]tapeMember) uint64) { shapeHash = h }(shapeHash)
	shapeHash = func([]tapeMember) uint64 { return 0 }
	var collide Encoder
	check(&collide)
	check(&collide)
	if len(collide.shapes) != 1 {
		t.Errorf("with every hash colliding the encoder remembers %d shapes, want 1", len(collide.shapes))
	}
}

// TestEncodeTapeReuse checks encoder scratch state resets across
// documents of different shapes.
func TestEncodeTapeReuse(t *testing.T) {
	var e Encoder
	for i := 0; i < 3; i++ {
		for _, src := range tapeEncodeDocs {
			var d jsontape.Doc
			if err := jsontape.Parse([]byte(src), &d); err != nil {
				t.Fatal(err)
			}
			v, _ := jsontext.Parse([]byte(src))
			if !bytes.Equal(e.EncodeTape(&d), Encode(v)) {
				t.Fatalf("round %d: %q differs after reuse", i, src)
			}
		}
	}
}
