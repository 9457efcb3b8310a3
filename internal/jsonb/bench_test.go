package jsonb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/jsontext"
)

var benchDocSink Doc

// BenchmarkDocGet measures the fallback lookup the scan core performs
// per boxed cell: a key the document has, a key it lacks (the common
// case on a tile mixing document types), and both on a 40-key object.
// Every case must report 0 allocs/op: keys are compared in place.
func BenchmarkDocGet(b *testing.B) {
	object := func(keys int) Doc {
		var sb strings.Builder
		sb.WriteByte('{')
		for i := 0; i < keys; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"l_field_%02d":%d`, i, i*37)
		}
		sb.WriteByte('}')
		v, err := jsontext.ParseString(sb.String())
		if err != nil {
			b.Fatal(err)
		}
		return NewDoc(Encode(v))
	}
	for _, c := range []struct {
		name string
		doc  Doc
		key  string
		hit  bool
	}{
		{"hit", object(9), "l_field_04", true},
		{"miss", object(9), "o_orderkey", false},
		{"hit40", object(40), "l_field_27", true},
		{"miss40", object(40), "l_field_27x", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, ok := c.doc.Get(c.key)
				if ok != c.hit {
					b.Fatalf("Get(%q) found = %v", c.key, ok)
				}
				benchDocSink = d
			}
		})
	}
}
