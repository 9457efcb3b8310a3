package jsontape_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/jsontext"
)

// corpus exercises every tape kind, lazy-decode boundary, and skip
// shape; parity tests below run each document through both parsers.
var corpus = []string{
	`null`, `true`, `false`, `0`, `-0`, `42`, `-42`,
	`999999999999999999`, `1000000000000000000`, `9223372036854775807`,
	`-9223372036854775808`, `9223372036854775808`, `-9223372036854775809`,
	`0.5`, `-0.5e2`, `1e308`, `1.7976931348623157e308`, `1e-999`, `-1e-999`,
	`0.0e99999`, `17976931348623157e292`, `0e0`, `10.25`,
	`""`, `"plain"`, `"\n\t\\\"\/"`, `"Aé中"`,
	`"😀"`, `"\ud800"`, `"\udc00"`, `"\ud800𐀀"`,
	`{}`, `[]`, `[null]`, `[[[[1]]]]`,
	`{"a":1,"b":{"c":[1,2.5,"x",true,null]},"d":[]}`,
	`{"dup":1,"dup":"two"}`,
	`{"":{"":1}}`,
	`[0,[1,[2,[3]]],{"k":[{"n":{}}]},"tail"]`,
	` { "ws" : [ 1 , 2 ] } `,
}

var invalid = []string{
	``, ` `, `tru`, `nulll`, `{`, `[`, `{"a"}`, `{"a":}`, `{"a":1,}`,
	`[1,]`, `[1 2]`, `"unterminated`, `"bad \x escape"`, `"\u12g4"`,
	`"\ud800\uzzzz"`, "\"ctrl\x01\"", `01`, `1.`, `1e`, `1e+`, `-`,
	`2e308`, `-1e309`, strings.Repeat("9", 400), `{"a":1}x`, `[1] [2]`,
	strings.Repeat("[", 513) + strings.Repeat("]", 513),
}

func TestParseParity(t *testing.T) {
	for _, src := range append(append([]string{}, corpus...), invalid...) {
		treeVal, treeErr := jsontext.Parse([]byte(src))
		var d jsontape.Doc
		tapeErr := jsontape.Parse([]byte(src), &d)
		if (treeErr == nil) != (tapeErr == nil) {
			t.Fatalf("%q: accept/reject mismatch: tree=%v tape=%v", src, treeErr, tapeErr)
		}
		if treeErr != nil {
			if treeErr.Error() != tapeErr.Error() {
				t.Errorf("%q: error text mismatch:\n tree=%v\n tape=%v", src, treeErr, tapeErr)
			}
			continue
		}
		got := d.Root().Materialize()
		if !got.Equal(treeVal) {
			t.Errorf("%q: materialize mismatch: tape=%s tree=%s",
				src, jsontext.Serialize(got), jsontext.Serialize(treeVal))
		}
		if g, w := jsontext.Serialize(got), jsontext.Serialize(treeVal); string(g) != string(w) {
			t.Errorf("%q: serialization mismatch: tape=%q tree=%q", src, g, w)
		}
	}
}

func TestMaxDepthBoundary(t *testing.T) {
	ok := strings.Repeat("[", 512) + strings.Repeat("]", 512)
	if err := jsontape.Validate([]byte(ok)); err != nil {
		t.Fatalf("depth 512 should parse: %v", err)
	}
	bad := strings.Repeat("[", 513) + strings.Repeat("]", 513)
	err := jsontape.Validate([]byte(bad))
	var se *jsontext.SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("depth 513 should fail with SyntaxError, got %v", err)
	}
}

func TestDocReuse(t *testing.T) {
	var d jsontape.Doc
	if err := jsontape.Parse([]byte(`{"a":[1,2,3],"b":"x"}`), &d); err != nil {
		t.Fatal(err)
	}
	first := len(d.Tape)
	if err := jsontape.Parse([]byte(`[true]`), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Tape) >= first {
		t.Fatalf("tape not reset on reuse: %d -> %d", first, len(d.Tape))
	}
	if got := d.Root().Materialize(); jsontext.SerializeString(got) != `[true]` {
		t.Fatalf("reused doc materialized wrong: %s", jsontext.Serialize(got))
	}
}

func TestCursorAndSkip(t *testing.T) {
	var d jsontape.Doc
	src := `{"a":{"deep":[1,2,3]},"b":7,"c":[{"x":1},"s"],"d":null}`
	if err := jsontape.Parse([]byte(src), &d); err != nil {
		t.Fatal(err)
	}
	root := d.Root()
	if root.Kind() != jsontape.KObj || root.Count() != 4 {
		t.Fatalf("root: kind=%v count=%d", root.Kind(), root.Count())
	}
	// Walk members, skipping subtrees, and collect keys.
	var keys []string
	j := root.Index() + 1
	for k := 0; k < root.Count(); k++ {
		keys = append(keys, d.At(j).StringVal())
		j = d.Skip(j + 1)
	}
	if strings.Join(keys, ",") != "a,b,c,d" {
		t.Fatalf("keys = %v", keys)
	}
	if j != root.End() {
		t.Fatalf("skip walk ended at %d, want %d", j, root.End())
	}
	b, ok := root.Member("b")
	if !ok || b.Kind() != jsontape.KInt || b.IntVal() != 7 {
		t.Fatalf("Member(b) = %v ok=%v", b.Kind(), ok)
	}
	c, _ := root.Member("c")
	el, ok := c.Elem(1)
	if !ok || el.StringVal() != "s" {
		t.Fatalf("c[1] = %q ok=%v", el.StringVal(), ok)
	}
	if _, ok := c.Elem(2); ok {
		t.Fatal("out-of-range Elem should fail")
	}
	if _, ok := root.Member("nope"); ok {
		t.Fatal("missing Member should fail")
	}
}

func TestMemberDecodedKeys(t *testing.T) {
	var d jsontape.Doc
	if err := jsontape.Parse([]byte(`{"é":1,"dup":2,"dup":3,"":4}`), &d); err != nil {
		t.Fatal(err)
	}
	root := d.Root()
	if v, ok := root.Member("é"); !ok || v.IntVal() != 1 {
		t.Fatal("escaped key lookup failed")
	}
	if v, ok := root.Member("dup"); !ok || v.IntVal() != 3 {
		t.Fatal("duplicate key lookup should return the last member")
	}
	if v, ok := root.Member(""); !ok || v.IntVal() != 4 {
		t.Fatal("empty key lookup failed")
	}
}

func TestLimitFallback(t *testing.T) {
	restore := jsontape.SetLimitsForTesting(4, 1<<32-1)
	defer restore()
	err := jsontape.Validate([]byte(`"longer than four"`))
	if !jsontape.IsLimit(err) {
		t.Fatalf("want LimitError for long string under test limits, got %v", err)
	}
	if err := jsontape.Validate([]byte(`"ok"`)); err != nil {
		t.Fatalf("short string should still parse: %v", err)
	}
	restore()
	if err := jsontape.Validate([]byte(`"longer than four"`)); err != nil {
		t.Fatalf("restored limits should accept: %v", err)
	}
}

func TestLazyDecodeValues(t *testing.T) {
	var d jsontape.Doc
	src := `[999999999999999999,-999999999999999999,9223372036854775807,1e-999,2.5,1e308]`
	if err := jsontape.Parse([]byte(src), &d); err != nil {
		t.Fatal(err)
	}
	root := d.Root()
	wantInts := []int64{999999999999999999, -999999999999999999, 9223372036854775807}
	for i, w := range wantInts {
		el, _ := root.Elem(i)
		if el.Kind() != jsontape.KInt || el.IntVal() != w {
			t.Fatalf("elem %d: kind=%v val=%d want %d", i, el.Kind(), el.IntVal(), w)
		}
	}
	wantFloats := []float64{0, 2.5, 1e308}
	for i, w := range wantFloats {
		el, _ := root.Elem(3 + i)
		if el.FloatVal() != w {
			t.Fatalf("float elem %d: %v want %v", 3+i, el.FloatVal(), w)
		}
	}
}

func TestAppendStringMatchesStringVal(t *testing.T) {
	srcs := []string{`"plain"`, `"\nA"`, `"\ud800"`, "\"\xff raw\"", `"mix😀\xyz"`}
	for _, src := range srcs {
		var d jsontape.Doc
		if err := jsontape.Parse([]byte(src), &d); err != nil {
			continue // some seeds intentionally invalid
		}
		n := d.Root()
		if got := string(n.AppendString(nil)); got != n.StringVal() {
			t.Errorf("%q: AppendString=%q StringVal=%q", src, got, n.StringVal())
		}
		if got := string(n.ContentBytes()); got != n.StringVal() {
			t.Errorf("%q: ContentBytes=%q StringVal=%q", src, got, n.StringVal())
		}
	}
}
