package keypath

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

func TestEncodeDisplay(t *testing.T) {
	tests := []struct {
		p       Path
		encoded string
		display string
	}{
		{NewPath("id"), "id", "id"},
		{NewPath("user", "id"), "user.id", "user.id"},
		{NewPath("geo", "lat"), "geo.lat", "geo.lat"},
		{NewPath("a.b"), `a\.b`, "a.b"},
		{NewPath(`a\b`), `a\\b`, `a\b`},
		{NewPath("a[0]"), `a\[0\]`, "a[0]"},
		{NewPath("tags").Slot(0), "tags[0]", "tags[0]"},
		{NewPath("tags").Slot(2).Child("text"), "tags[2]text", "tags[2].text"},
		{NewPath("a").Slot(0).Slot(1), "a[0][1]", "a[0][1]"},
		{NewPath(""), `\e`, ""},
		{NewPath("", "b"), `\e.b`, ".b"},
		{Path{}, "", ""},
	}
	for _, tt := range tests {
		if got := tt.p.Encode(); got != tt.encoded {
			t.Errorf("Encode(%v) = %q, want %q", tt.p, got, tt.encoded)
		}
		if got := tt.p.Display(); got != tt.display {
			t.Errorf("Display(%v) = %q, want %q", tt.p, got, tt.display)
		}
	}
}

func TestParsePathRoundTrip(t *testing.T) {
	paths := []Path{
		NewPath("id"),
		NewPath("user", "id", "name"),
		NewPath("a.b", "c[1]", `d\e`),
		NewPath("tags").Slot(0).Child("text").Slot(3),
		NewPath(""),
		NewPath("", ""),
		NewPath("a", "", "b"),
		NewPath("e"), // must not collide with the empty marker
		NewPath(`\e`),
		Path{},
	}
	for _, p := range paths {
		enc := p.Encode()
		back, err := ParsePath(enc)
		if err != nil {
			t.Errorf("ParsePath(%q): %v", enc, err)
			continue
		}
		if !reflect.DeepEqual(back, p) && !(len(p.Segs) == 0 && len(back.Segs) == 0) {
			t.Errorf("round trip %q: got %+v, want %+v", enc, back.Segs, p.Segs)
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	bad := []string{`[`, `[x]`, `[1`, `a\`, `a]b`, `[0]]`}
	for _, s := range bad {
		if _, err := ParsePath(s); err == nil {
			t.Errorf("ParsePath(%q) succeeded", s)
		}
	}
}

// Property: Encode is injective over random paths and ParsePath
// inverts it.
func TestQuickEncodeInjective(t *testing.T) {
	gen := func(r *rand.Rand) Path {
		n := 1 + r.Intn(4)
		p := Path{}
		keys := []string{"a", "b", "id", "a.b", `x\`, "", "e", "[", "]"}
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				p = p.Slot(r.Intn(5))
			} else {
				p = p.Child(keys[r.Intn(len(keys))])
			}
		}
		return p
	}
	r := rand.New(rand.NewSource(11))
	seen := map[string]Path{}
	for i := 0; i < 2000; i++ {
		p := gen(r)
		enc := p.Encode()
		if prev, ok := seen[enc]; ok && !reflect.DeepEqual(prev, p) {
			t.Fatalf("collision: %+v and %+v both encode to %q", prev.Segs, p.Segs, enc)
		}
		seen[enc] = p
		back, err := ParsePath(enc)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", enc, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip %q: %+v != %+v", enc, back.Segs, p.Segs)
		}
	}
}

// TestPrefixesMatchSegments pins Prefixes to the encodings of a path's
// leading segments, over string and []byte, and its early stop.
func TestPrefixesMatchSegments(t *testing.T) {
	keys := []string{"a", "id", "a.b", `x\`, "", "e", "[", "]", "[0]", `\e`}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		p := Path{}
		for n := 1 + r.Intn(5); n > 0; n-- {
			if r.Intn(3) == 0 {
				p = p.Slot(r.Intn(12))
			} else {
				p = p.Child(keys[r.Intn(len(keys))])
			}
		}
		var want []string
		for n := len(p.Segs) - 1; n >= 1; n-- {
			want = append(want, Path{Segs: p.Segs[:n]}.Encode())
		}
		enc := p.Encode()
		var got, gotBytes []string
		Prefixes(enc, func(s string) bool { got = append(got, s); return true })
		Prefixes([]byte(enc), func(b []byte) bool { gotBytes = append(gotBytes, string(b)); return true })
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotBytes, want) {
			t.Fatalf("Prefixes(%q) = %q / %q, want %q", enc, got, gotBytes, want)
		}
	}
	calls := 0
	Prefixes("a.b.c[1]", func(string) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("Prefixes went on after false: %d calls", calls)
	}
}

func doc(t *testing.T, s string) jsonvalue.Value {
	t.Helper()
	v, err := jsontext.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCollectPaperExample(t *testing.T) {
	// Tuple with id 5 from Figure 2: key paths {i, c, t, u_i, r, g_l}.
	d := doc(t, `{"id":5, "create":"1/10", "text":"b", "user":{"id":7}, "replies":3, "geo":{"lat":1.9}}`)
	got := map[string]ValueType{}
	Collect(d, 0, func(p Path, vt ValueType, v jsonvalue.Value) {
		got[p.Encode()] = vt
	})
	want := map[string]ValueType{
		"id":      TypeBigInt,
		"create":  TypeString,
		"text":    TypeString,
		"user.id": TypeBigInt,
		"replies": TypeBigInt,
		"geo.lat": TypeDouble,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("collected %v, want %v", got, want)
	}
}

func TestCollectNullLeaf(t *testing.T) {
	// Tuple 6 of Figure 2 has "geo": null — a leaf of type Null.
	d := doc(t, `{"id":6, "geo":null}`)
	got := map[string]ValueType{}
	Collect(d, 0, func(p Path, vt ValueType, v jsonvalue.Value) {
		got[p.Encode()] = vt
	})
	if got["geo"] != TypeNull {
		t.Errorf("geo type = %v", got["geo"])
	}
	if len(got) != 2 {
		t.Errorf("collected %v", got)
	}
}

func TestCollectArraySlots(t *testing.T) {
	d := doc(t, `{"tags":[{"t":"a"},{"t":"b"},{"t":"c"}], "nums":[1,2]}`)
	var paths []string
	Collect(d, 2, func(p Path, vt ValueType, v jsonvalue.Value) {
		paths = append(paths, p.Encode())
	})
	want := []string{"tags[0]t", "tags[1]t", "nums[0]", "nums[1]"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v, want %v (slot cap 2)", paths, want)
	}
}

func TestCollectEmptyContainersReported(t *testing.T) {
	// Empty containers are presence-only leaves: the path must be
	// visible (headers, skipping) but the type marks it unextractable.
	d := doc(t, `{"a":{}, "b":[], "c":1}`)
	got := map[string]ValueType{}
	Collect(d, 0, func(p Path, vt ValueType, v jsonvalue.Value) {
		got[p.Encode()] = vt
	})
	want := map[string]ValueType{"a": TypeObject, "b": TypeArray, "c": TypeBigInt}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("collected %v, want %v", got, want)
	}
}

func TestCollectScalarRoot(t *testing.T) {
	var n int
	Collect(jsonvalue.Int(5), 0, func(Path, ValueType, jsonvalue.Value) { n++ })
	if n != 0 {
		t.Errorf("scalar root produced %d leaves", n)
	}
}

func TestLookup(t *testing.T) {
	d := doc(t, `{"user":{"id":7,"tags":["x","y"]}, "n":1}`)
	tests := []struct {
		p    Path
		want jsonvalue.Value
		ok   bool
	}{
		{NewPath("n"), jsonvalue.Int(1), true},
		{NewPath("user", "id"), jsonvalue.Int(7), true},
		{NewPath("user", "tags").Slot(1), jsonvalue.String("y"), true},
		{NewPath("user", "tags").Slot(2), jsonvalue.Null(), false},
		{NewPath("missing"), jsonvalue.Null(), false},
		{NewPath("n", "deeper"), jsonvalue.Null(), false},
		{NewPath("user", "tags", "notindex"), jsonvalue.Null(), false},
	}
	for _, tt := range tests {
		got, ok := Lookup(d, tt.p)
		if ok != tt.ok || (ok && !got.Equal(tt.want)) {
			t.Errorf("Lookup(%s) = %#v, %v", tt.p.Display(), got, ok)
		}
	}
}

// Property: every collected path can be looked up and returns the
// same value.
func TestQuickCollectLookupAgree(t *testing.T) {
	type gen struct{ v jsonvalue.Value }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r, 3)
		ok := true
		Collect(d, 4, func(p Path, vt ValueType, v jsonvalue.Value) {
			got, found := Lookup(d, p)
			if !found || !got.Equal(v) {
				ok = false
				return
			}
			switch vt {
			case TypeObject, TypeArray:
				if got.Len() != 0 {
					ok = false
				}
			default:
				if TypeOf(got) != vt {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	_ = gen{}
}

func randomDoc(r *rand.Rand, depth int) jsonvalue.Value {
	keys := []string{"a", "b", "c", "d.d", ""}
	n := 1 + r.Intn(4)
	var ms []jsonvalue.Member
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		k := keys[r.Intn(len(keys))]
		if used[k] {
			continue
		}
		used[k] = true
		var v jsonvalue.Value
		switch c := r.Intn(6); {
		case c == 0 && depth > 0:
			v = randomDoc(r, depth-1)
		case c == 1 && depth > 0:
			var elems []jsonvalue.Value
			for j := 0; j < r.Intn(6); j++ {
				elems = append(elems, jsonvalue.Int(int64(j)))
			}
			v = jsonvalue.Array(elems...)
		case c == 2:
			v = jsonvalue.Null()
		case c == 3:
			v = jsonvalue.Float(r.Float64())
		default:
			v = jsonvalue.Int(int64(r.Intn(100)))
		}
		ms = append(ms, jsonvalue.M(k, v))
	}
	return jsonvalue.Object(ms...)
}

func TestDict(t *testing.T) {
	d := NewDict()
	id1 := d.Add("user.id", TypeBigInt)
	id2 := d.Add("user.id", TypeString) // same path, different type: distinct item
	id3 := d.Add("user.id", TypeBigInt) // duplicate: same id
	if id1 == id2 {
		t.Error("type pairing broken: same id for different types")
	}
	if id1 != id3 {
		t.Error("duplicate add returned new id")
	}
	if d.Len() != 2 {
		t.Errorf("len = %d", d.Len())
	}
	if it := d.Item(id1); it.Path != "user.id" || it.Type != TypeBigInt {
		t.Errorf("item = %+v", it)
	}
	if _, ok := d.Get("user.id", TypeDouble); ok {
		t.Error("absent item found")
	}
	if got, ok := d.Get("user.id", TypeString); !ok || got != id2 {
		t.Errorf("Get = %d, %v", got, ok)
	}
	if len(d.Items()) != 2 {
		t.Error("Items() wrong length")
	}
}

func TestTypeOf(t *testing.T) {
	tests := []struct {
		v jsonvalue.Value
		t ValueType
	}{
		{jsonvalue.Null(), TypeNull},
		{jsonvalue.Bool(true), TypeBool},
		{jsonvalue.Int(1), TypeBigInt},
		{jsonvalue.Float(1), TypeDouble},
		{jsonvalue.String("x"), TypeString},
	}
	for _, tt := range tests {
		if got := TypeOf(tt.v); got != tt.t {
			t.Errorf("TypeOf(%#v) = %v, want %v", tt.v, got, tt.t)
		}
	}
}

func TestValueTypeString(t *testing.T) {
	names := map[ValueType]string{
		TypeNull: "Null", TypeBool: "Bool", TypeBigInt: "BigInt",
		TypeDouble: "Double", TypeString: "Text", TypeTimestamp: "Timestamp",
	}
	for vt, want := range names {
		if vt.String() != want {
			t.Errorf("%d.String() = %s", vt, vt.String())
		}
	}
}
