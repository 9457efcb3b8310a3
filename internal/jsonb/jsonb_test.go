package jsonb

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/float16"
	"repro/internal/jsongen"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func enc(t *testing.T, src string) Doc {
	t.Helper()
	v, err := jsontext.ParseString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return NewDoc(Encode(v))
}

func TestScalarRoundTrip(t *testing.T) {
	srcs := []string{
		`null`, `true`, `false`,
		`0`, `7`, `8`, `-1`, `127`, `128`, `-128`, `-129`,
		`32767`, `32768`, `-32768`, `65536`, `2147483647`, `2147483648`,
		`9223372036854775807`, `-9223372036854775808`,
		`0.5`, `1.5`, `-2.25`, `3.141592653589793`, `1e300`, `-1e-300`,
		`""`, `"a"`, `"hello"`, `"1234567"`, `"12345678"`,
		`"é😀"`, `"line\nbreak"`,
	}
	for _, s := range srcs {
		want, _ := jsontext.ParseString(s)
		d := enc(t, s)
		got := d.Decode()
		if !got.Equal(want) {
			t.Errorf("round trip %s: got %#v", s, got)
		}
		if !Valid(d.Bytes()) {
			t.Errorf("Valid(%s) = false", s)
		}
	}
}

func TestSmallIntInHeader(t *testing.T) {
	for i := int64(0); i < 8; i++ {
		buf := Encode(jsonvalue.Int(i))
		if len(buf) != 1 {
			t.Errorf("Encode(%d) = %d bytes, want 1 (inline header)", i, len(buf))
		}
	}
	if buf := Encode(jsonvalue.Int(8)); len(buf) != 2 {
		t.Errorf("Encode(8) = %d bytes, want 2", len(buf))
	}
	if buf := Encode(jsonvalue.Int(-1)); len(buf) != 2 {
		t.Errorf("Encode(-1) = %d bytes, want 2", len(buf))
	}
}

func TestMinimalIntWidths(t *testing.T) {
	tests := []struct {
		v    int64
		size int // header + payload
	}{
		{127, 2}, {-128, 2},
		{128, 3}, {-129, 3}, {32767, 3},
		{32768, 4}, {1 << 23, 5}, {1 << 31, 6},
		{1 << 39, 7}, {1 << 40, 7}, {1 << 47, 8}, {1 << 48, 8},
		{math.MaxInt64, 9}, {math.MinInt64, 9},
	}
	for _, tt := range tests {
		buf := Encode(jsonvalue.Int(tt.v))
		if len(buf) != tt.size {
			t.Errorf("Encode(%d) = %d bytes, want %d", tt.v, len(buf), tt.size)
		}
		got, ok := NewDoc(buf).Int64()
		if !ok || got != tt.v {
			t.Errorf("decode(%d) = %d, ok=%v", tt.v, got, ok)
		}
	}
}

func TestFloatCompression(t *testing.T) {
	tests := []struct {
		f    float64
		size int
	}{
		{0, 3}, {1, 3}, {-2, 3}, {0.5, 3}, {65504, 3}, // binary16 exact
		{1.0 / 3.0 * 3e7, 9},       // needs full double (check below)
		{float64(float32(0.1)), 5}, // binary32 exact, binary16 not
		{3.141592653589793, 9},     // double only
		{6.1e-5, 9},                // decimal literal: not binary16/32 exact
	}
	for _, tt := range tests {
		buf := Encode(jsonvalue.Float(tt.f))
		got, ok := NewDoc(buf).Float64()
		if !ok || got != tt.f {
			t.Errorf("float %g decoded to %g", tt.f, got)
		}
		if tt.size == 9 {
			// Only assert losslessness for these; the exact width
			// depends on the value.
			continue
		}
		if len(buf) != tt.size {
			t.Errorf("Encode(%g) = %d bytes, want %d", tt.f, len(buf), tt.size)
		}
	}
}

func TestFloatLosslessProperty(t *testing.T) {
	f := func(bits uint64) bool {
		fv := math.Float64frombits(bits)
		if math.IsNaN(fv) || math.IsInf(fv, 0) {
			return true // not representable in JSON; skip
		}
		got, ok := NewDoc(Encode(jsonvalue.Float(fv))).Float64()
		return ok && got == fv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestObjectLookup(t *testing.T) {
	d := enc(t, `{"id":1, "create":"3/06", "text":"a", "user":{"id":9,"name":"bo"}, "geo":null}`)
	if d.Kind() != KindObject || d.Len() != 5 {
		t.Fatalf("kind=%v len=%d", d.Kind(), d.Len())
	}
	id, ok := d.Get("id")
	if !ok {
		t.Fatal("id missing")
	}
	if v, _ := id.Int64(); v != 1 {
		t.Errorf("id = %d", v)
	}
	uid, ok := d.GetPath("user", "id")
	if !ok {
		t.Fatal("user.id missing")
	}
	if v, _ := uid.Int64(); v != 9 {
		t.Errorf("user.id = %d", v)
	}
	if g, ok := d.Get("geo"); !ok || !g.IsNull() {
		t.Errorf("geo: ok=%v null=%v", ok, g.IsNull())
	}
	if _, ok := d.Get("missing"); ok {
		t.Error("missing key found")
	}
	if _, ok := d.Get("aaaa"); ok { // below first sorted key
		t.Error("aaaa found")
	}
	if _, ok := d.Get("zzzz"); ok { // above last sorted key
		t.Error("zzzz found")
	}
}

func TestObjectKeysSorted(t *testing.T) {
	d := enc(t, `{"z":1,"a":2,"m":{"q":1,"b":2}}`)
	keys := d.Keys()
	if !sort.StringsAreSorted(keys) {
		t.Errorf("keys not sorted: %v", keys)
	}
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "z" {
		t.Errorf("keys = %v", keys)
	}
	for _, k := range keys {
		if !d.HasKey(k) {
			t.Errorf("HasKey(%q) = false", k)
		}
	}
	if d.HasKey("nope") {
		t.Error("HasKey(nope) = true")
	}
}

func TestArrayIndex(t *testing.T) {
	d := enc(t, `[10, "x", null, [1,2], {"k":5}]`)
	if d.Kind() != KindArray || d.Len() != 5 {
		t.Fatalf("kind=%v len=%d", d.Kind(), d.Len())
	}
	e0, _ := d.Index(0)
	if v, _ := e0.Int64(); v != 10 {
		t.Errorf("a[0] = %d", v)
	}
	e3, _ := d.Index(3)
	if e3.Kind() != KindArray || e3.Len() != 2 {
		t.Errorf("a[3] = %v len %d", e3.Kind(), e3.Len())
	}
	e4, _ := d.Index(4)
	k, ok := e4.Get("k")
	if !ok {
		t.Fatal("a[4].k missing")
	}
	if v, _ := k.Int64(); v != 5 {
		t.Errorf("a[4].k = %d", v)
	}
	if _, ok := d.Index(5); ok {
		t.Error("out-of-range index succeeded")
	}
	if _, ok := d.Index(-1); ok {
		t.Error("negative index succeeded")
	}
}

func TestEachForwardIteration(t *testing.T) {
	d := enc(t, `{"b":1,"a":{"x":[1,2]},"c":"s"}`)
	var keys []string
	d.Each(func(k string, v Doc) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Errorf("iteration keys = %v", keys)
	}
	// Early stop.
	count := 0
	d.Each(func(k string, v Doc) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestNumericStringDetection(t *testing.T) {
	accepted := map[string]string{
		"0": "", "12": "", "-7": "", "3.50": "", "0.001": "",
		"-0.5": "", "19.99": "", "100.00": "", "999999999999999999": "",
	}
	rejected := []string{
		"", "007", "1e5", "12.", ".5", "-0", "-0.0",
		"1234567890123456789012", "abc", "1a", " 1", "1 ", "+1",
		"--1", "1.2.3", "0x10", "١٢", "-",
	}
	for s := range accepted {
		d := NewDoc(Encode(jsonvalue.String(s)))
		if !d.IsNumericString() {
			t.Errorf("%q not detected as numeric", s)
			continue
		}
		got, _ := d.String()
		if got != s {
			t.Errorf("numeric %q round-tripped to %q", s, got)
		}
	}
	for _, s := range rejected {
		d := NewDoc(Encode(jsonvalue.String(s)))
		if d.IsNumericString() {
			t.Errorf("%q incorrectly detected as numeric", s)
		}
		got, ok := d.String()
		if !ok || got != s {
			t.Errorf("string %q round-tripped to %q", s, got)
		}
	}
}

func TestNumericStringTypedAccess(t *testing.T) {
	d := NewDoc(Encode(jsonvalue.String("-123.45")))
	m, sc, ok := d.NumericString()
	if !ok || m != -12345 || sc != 2 {
		t.Errorf("NumericString = (%d, %d, %v)", m, sc, ok)
	}
	// Kind is still string: JSON semantics preserved.
	if d.Kind() != KindString {
		t.Errorf("kind = %v", d.Kind())
	}
}

func TestDecodeSortsKeys(t *testing.T) {
	d := enc(t, `{"z":1,"a":2}`)
	v := d.Decode()
	ms := v.Members()
	if ms[0].Key != "a" || ms[1].Key != "z" {
		t.Errorf("decoded member order: %v, %v", ms[0].Key, ms[1].Key)
	}
}

func TestJSONSerializeFromBinary(t *testing.T) {
	d := enc(t, `{"b":[1,2.5,"x"],"a":null}`)
	got := d.JSON()
	want := `{"a":null,"b":[1,2.5,"x"]}`
	if got != want {
		t.Errorf("JSON() = %s, want %s", got, want)
	}
}

func TestAsText(t *testing.T) {
	tests := []struct{ src, want string }{
		{`"abc"`, "abc"},
		{`42`, "42"},
		{`2.5`, "2.5"},
		{`true`, "true"},
		{`null`, ""},
		{`[1,2]`, "[1,2]"},
		{`{"a":1}`, `{"a":1}`},
	}
	for _, tt := range tests {
		if got := enc(t, tt.src).AsText(); got != tt.want {
			t.Errorf("AsText(%s) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestLargeObject(t *testing.T) {
	// More than 255 members forces a wider count encoding; long
	// strings force wider offsets.
	var members []jsonvalue.Member
	for i := 0; i < 300; i++ {
		members = append(members, jsonvalue.M(
			string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+i%10)),
			jsonvalue.Int(int64(i))))
	}
	v := jsonvalue.Object(members...)
	d := NewDoc(Encode(v))
	if !Valid(d.Bytes()) {
		t.Fatal("large object invalid")
	}
	if !d.Decode().Equal(v) {
		t.Fatal("large object round trip failed")
	}
}

func TestLargeArrayWideOffsets(t *testing.T) {
	var elems []jsonvalue.Value
	long := jsonvalue.String(string(make([]byte, 300)))
	for i := 0; i < 300; i++ {
		elems = append(elems, long)
	}
	v := jsonvalue.Array(elems...)
	d := NewDoc(Encode(v))
	if !Valid(d.Bytes()) {
		t.Fatal("invalid")
	}
	e, ok := d.Index(299)
	if !ok {
		t.Fatal("index 299 failed")
	}
	s, _ := e.String()
	if len(s) != 300 {
		t.Errorf("len = %d", len(s))
	}
}

func TestValidRejectsCorrupt(t *testing.T) {
	good := Encode(mustParseV(t, `{"a":[1,2],"b":"xy"}`))
	if !Valid(good) {
		t.Fatal("good buffer invalid")
	}
	// Truncations must never validate.
	for i := 0; i < len(good); i++ {
		if Valid(good[:i]) {
			t.Errorf("truncation at %d validated", i)
		}
	}
	// Flip type tags.
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xF0
		// Mutations may still be valid JSONB by chance only if the
		// size works out; never panic is the real property here.
		Valid(bad)
	}
}

func TestEncoderReuse(t *testing.T) {
	var e Encoder
	v1 := mustParseV(t, `{"a":1,"b":[1,2,3]}`)
	v2 := mustParseV(t, `{"z":"abc"}`)
	b1 := e.Encode(v1)
	b2 := e.Encode(v2)
	if !NewDoc(b1).Decode().Equal(v1) {
		t.Error("b1 corrupted after reuse")
	}
	if !NewDoc(b2).Decode().Equal(v2) {
		t.Error("b2 wrong")
	}
}

func mustParseV(t *testing.T, s string) jsonvalue.Value {
	t.Helper()
	v, err := jsontext.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Property: for any generated document, encode→decode is identity
// modulo object key order, and the buffer validates.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	var e Encoder
	f := func(g jsongen.Gen) bool {
		buf := e.Encode(g.V)
		if !Valid(buf) {
			return false
		}
		return NewDoc(buf).Decode().Equal(g.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: binary-to-text serialization re-parses to the same value.
func TestQuickBinaryToTextRoundTrip(t *testing.T) {
	f := func(g jsongen.Gen) bool {
		d := NewDoc(Encode(g.V))
		v2, err := jsontext.ParseString(d.JSON())
		if err != nil {
			return false
		}
		return v2.Equal(g.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: every key Lookup-able in the value tree is Get-able in the
// binary form with an equal payload.
func TestQuickLookupAgreement(t *testing.T) {
	f := func(g jsongen.Gen) bool {
		if g.V.Kind() != jsonvalue.KindObject {
			return true
		}
		d := NewDoc(Encode(g.V))
		for _, m := range g.V.Members() {
			want, _ := g.V.Lookup(m.Key) // duplicate keys: last wins
			got, ok := d.Get(m.Key)
			if !ok || !got.Decode().Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestHalfFloatTable(t *testing.T) {
	cases := []float64{0, -0.0, 1, -1, 0.5, 2, 65504, -65504, 0.0009765625,
		5.960464477539063e-08, // smallest positive subnormal half
	}
	for _, f := range cases {
		h, ok := float16.FromFloat64(f)
		if !ok {
			t.Errorf("%g should be half-exact", f)
			continue
		}
		if back := float16.ToFloat64(h); back != f {
			t.Errorf("half(%g) -> %g", f, back)
		}
	}
	inexact := []float64{0.1, 65505, 1e5, math.Pi, 1e-8}
	for _, f := range inexact {
		if _, ok := float16.FromFloat64(f); ok {
			t.Errorf("%g should not be half-exact", f)
		}
	}
}

func TestNegativeZeroFloat(t *testing.T) {
	nz := math.Copysign(0, -1)
	got, ok := NewDoc(Encode(jsonvalue.Float(nz))).Float64()
	if !ok || math.Signbit(got) != true || got != 0 {
		t.Errorf("negative zero decoded to %g (signbit %v)", got, math.Signbit(got))
	}
}

// TestAppendObjectRebuildsObjects: an object rebuilt from its own
// members (EachMember, then AppendObject) equals it byte for byte,
// whatever widths its count and offsets take.
func TestAppendObjectRebuildsObjects(t *testing.T) {
	long := strings.Repeat("v", 300)
	for _, src := range []string{
		`{}`, `{"a":1}`, `{"a":null,"b":[1,{"c":"x"}],"":true}`,
		`{"k":"` + long + `","m":{"n":"` + long + `"}}`,
		largeObjectJSON(300),
	} {
		d := NewDoc(Encode(mustParseV(t, src)))
		var ms []Member
		ok := d.EachMember(func(k, v []byte) { ms = append(ms, Member{Key: k, Value: v}) })
		if !ok || len(ms) != d.Len() {
			t.Fatalf("%.40s: EachMember saw %d members, %v", src, len(ms), ok)
		}
		for i, k := range d.Keys() {
			v, _ := d.Get(k)
			if string(ms[i].Key) != k || !bytes.Equal(ms[i].Value, v.Bytes()) {
				t.Fatalf("%.40s: member %d is %q, want %q", src, i, ms[i].Key, k)
			}
		}
		got := AppendObject([]byte("prefix"), ms)
		if !bytes.Equal(got[6:], d.Bytes()) {
			t.Errorf("%.40s: rebuilt %x, want %x", src, got[6:], d.Bytes())
		}
	}
	for _, src := range []string{`[1,2]`, `"s"`, `3`, `null`} {
		if NewDoc(Encode(mustParseV(t, src))).EachMember(func(k, v []byte) {}) {
			t.Errorf("%s: EachMember reports an object", src)
		}
	}
}

// largeObjectJSON is an object of n members: past 255 members, its
// count takes two bytes.
func largeObjectJSON(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf(`"k%04d":%d`, i, i)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
