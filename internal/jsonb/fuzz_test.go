package jsonb

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// FuzzParse drives the full ingestion pipeline with arbitrary bytes:
// parse → serialize → reparse must be a fixed point, and every parsed
// document must survive the binary JSON round trip. `go test` runs
// the seed corpus; `go test -fuzz=FuzzParse ./internal/jsonb` digs.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`{}`, `[]`, `null`, `0`, `-0.5e2`, `"str"`,
		`{"id":1,"user":{"id":3,"tags":["a","b"]},"geo":null}`,
		`[{"a":[[]]},2,"x"]`,
		`{"n":"12.50","big":9223372036854775807}`,
		"{\"u\":\"\\u00e9\\ud83d\\ude00\"}",
		`{"dup":1,"dup":2}`,
		"[1,2",
		`{"a":`,
		"\"\\ud800\"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := jsontext.Parse(data)
		if err != nil {
			return // malformed input: rejection is the correct outcome
		}
		// Text round trip.
		out := jsontext.Serialize(v)
		v2, err := jsontext.Parse(out)
		if err != nil {
			t.Fatalf("serialized output unparseable: %q from %q", out, data)
		}
		if !v2.Equal(v) {
			t.Fatalf("text round trip changed value: %q", data)
		}
		// Binary round trip.
		buf := Encode(v)
		if !Valid(buf) {
			t.Fatalf("encoder produced invalid JSONB for %q", data)
		}
		if !NewDoc(buf).Decode().Equal(v) {
			t.Fatalf("binary round trip changed value: %q", data)
		}
	})
}

// FuzzDocGetVsTree pins Doc.Get to jsonvalue.Lookup: for every object
// anywhere in a parsed document, looking up each of its keys — repeated
// ones included, where the last occurrence wins — and a few absent
// ones in the encoded form finds what the tree finds, whether the
// document was encoded from the tree or from the tape.
func FuzzDocGetVsTree(f *testing.F) {
	seeds := []string{
		`{"a":1,"b":5,"a":2,"c":7,"a":3,"d":1,"e":2}`,
		`{"b":{"y":1,"x":2,"y":{"y":3}},"a":[{"k":1,"k":null}],"":0,"b":{"x":9}}`,
		`{"é":1,"e":2,"é":3,"long key ` + strings.Repeat("k", 200) + `":4}`,
		`{"z":1,"y":2,"x":3,"w":4,"v":5,"u":6,"t":7,"s":8,"r":9}`,
		`[{"a":1},{"a":2,"a":3}]`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := jsontext.Parse(data)
		if err != nil {
			return
		}
		var enc Encoder
		fromTree := enc.Encode(v)
		var tape jsontape.Doc
		if err := jsontape.Parse(data, &tape); err == nil {
			if fromTape := enc.EncodeTape(&tape); !bytes.Equal(fromTape, fromTree) {
				t.Fatalf("tape and tree encodings differ for %q", data)
			}
		}
		if !Valid(fromTree) {
			t.Fatalf("invalid JSONB for %q", data)
		}
		checkGets(t, v, NewDoc(fromTree))
	})
}

// checkGets compares d.Get with v.Lookup for every key of every object
// under v, plus absent probes around each key.
func checkGets(t *testing.T, v jsonvalue.Value, d Doc) {
	switch v.Kind() {
	case jsonvalue.KindArray:
		for i, el := range v.Elems() {
			sub, ok := d.Index(i)
			if !ok {
				t.Fatalf("array element %d missing", i)
			}
			checkGets(t, el, sub)
		}
	case jsonvalue.KindObject:
		for _, m := range v.Members() {
			for _, key := range []string{m.Key, m.Key + "\x00", m.Key[:len(m.Key)/2], "~" + m.Key} {
				want, present := v.Lookup(key)
				got, found := d.Get(key)
				if found != present || d.HasKey(key) != present {
					t.Fatalf("Get(%q) found=%v, tree has it=%v", key, found, present)
				}
				if !present {
					continue
				}
				if !got.Decode().Equal(NewDoc(Encode(want)).Decode()) {
					t.Fatalf("Get(%q) = %s, tree says %s", key, got.AsText(), jsontext.Serialize(want))
				}
				if key == m.Key {
					checkGets(t, want, got)
				}
			}
		}
	}
}
