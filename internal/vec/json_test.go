package vec

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsongen"
	"repro/internal/jsonvalue"
)

// cellOf is the result cell a member value of a document becomes: a
// scalar of its SQL type, a container as a JSON document, an absent
// key as NULL.
func cellOf(v jsonvalue.Value, ok bool) expr.Value {
	if !ok {
		return expr.NullValue()
	}
	switch v.Kind() {
	case jsonvalue.KindNull:
		return expr.NullValue()
	case jsonvalue.KindBool:
		return expr.BoolValue(v.BoolVal())
	case jsonvalue.KindInt:
		return expr.IntValue(v.IntVal())
	case jsonvalue.KindFloat:
		return expr.FloatValue(v.FloatVal())
	case jsonvalue.KindString:
		return expr.TextValue(v.StringVal())
	}
	return expr.JSONValue(jsonb.NewDoc(jsonb.Encode(v)))
}

// dictVector dictionary-codes a column of text cells (NULL or TText).
func dictVector(cells []expr.Value) Vector {
	var entries []string
	for _, x := range cells {
		if !x.Null {
			entries = append(entries, x.S)
		}
	}
	slices.Sort(entries)
	entries = slices.Compact(entries)
	v := Vector{Type: expr.TText, Dict: true, StrOff: []uint32{}, Codes16: make([]uint16, len(cells))}
	for _, e := range entries {
		v.StrBytes = append(v.StrBytes, e...)
		v.StrOff = append(v.StrOff, uint32(len(v.StrBytes)))
	}
	for i, x := range cells {
		if x.Null {
			if v.Nulls == nil {
				v.Nulls = nullBits(nil, len(cells))
			}
			v.Nulls[i>>6] |= 1 << (uint(i) & 63)
			continue
		}
		k, _ := slices.BinarySearch(entries, x.S)
		v.Codes16[i] = uint16(k)
	}
	return v
}

// columnVectors returns every layout a column of cells of type t can
// arrive in: appended to a Buf (boxed for ::JSON alone),
// dictionary-coded for text, and a gather of the appended layout that
// reverses the rows (a shared text arena read through Codes32). Each
// comes with the cells it holds, row for row.
func columnVectors(t expr.SQLType, cells []expr.Value) (vecs []Vector, want [][]expr.Value) {
	b := appendValues(t, cells)
	vecs = append(vecs, *b)
	want = append(want, cells)
	if t == expr.TText {
		vecs = append(vecs, dictVector(cells))
		want = append(want, cells)
	}
	rev := make([]int32, len(cells))
	revCells := make([]expr.Value, len(cells))
	for i := range rev {
		rev[i] = int32(len(cells) - 1 - i)
		revCells[i] = cells[rev[i]]
	}
	var buf Buf
	vecs = append(vecs, *buf.Gather(b, rev, nil))
	want = append(want, revCells)
	return vecs, want
}

// encodeAny is the reference rendering: encoding/json's Encoder (HTML
// escaping on) over the cells' AnyValue, without its newline.
func encodeAny(t *testing.T, cells []expr.Value) []byte {
	vals := make([]any, len(cells))
	for i, x := range cells {
		vals[i] = AnyValue(x)
	}
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(vals); err != nil {
		t.Fatalf("encoding/json rejects %v: %v", vals, err)
	}
	return bytes.TrimSuffix(out.Bytes(), []byte("\n"))
}

// FuzzNDJSONRow: AppendJSON writes every cell of every vector layout
// byte for byte as encoding/json writes the cell's AnyValue (the value
// a library caller gets from Value.Any). Rows come from jsongen
// documents, one column per member key and cell type, plus one row of
// the fuzzed text, float and integer, read as text, float, integer and
// timestamp columns and, for an all-NULL vector, as nothing.
func FuzzNDJSONRow(f *testing.F) {
	f.Add(int64(1), "<>&", 1e-7, int64(math.MinInt64))
	f.Add(int64(2), "\x00\x01\x1f\b\f\n\r\t\"\\\x7f", 1e21, int64(math.MaxInt64))
	f.Add(int64(3), "a\xffb\xc0\xe2\x80", math.Copysign(0, -1), int64(1_600_000_000_123_456))
	f.Add(int64(4), "line\u2028para\u2029end", 123456789e-15, int64(-1))
	f.Add(int64(5), "caf\u00e9 \U0001F600", math.NaN(), int64(0))
	f.Add(int64(6), "", math.Inf(1), int64(1_600_000_000_000_001))
	f.Add(int64(7), "x", math.Inf(-1), int64(-62_135_596_800_000_000))
	f.Add(int64(8), "\ufffd", 1e20, int64(253_402_300_799_999_999))
	f.Fuzz(func(t *testing.T, seed int64, s string, fl float64, n int64) {
		r := rand.New(rand.NewSource(seed))
		keys := []string{"id", "name", "user", "text", "score", "k"}
		docs := make([]jsonvalue.Value, 6)
		for i := range docs {
			docs[i] = jsongen.RandomObject(r, 3)
		}
		typed := []expr.SQLType{expr.TText, expr.TFloat, expr.TBigInt, expr.TTimestamp}
		edge := []expr.Value{expr.TextValue(s), expr.FloatValue(fl), expr.IntValue(n), expr.TimestampValue(n)}
		rows := len(docs) + 1
		nulls := make([]expr.Value, rows)
		for i := range nulls {
			nulls[i] = expr.NullValue()
		}
		var cols [][]expr.Value
		var types []expr.SQLType
		for _, k := range keys {
			// A column holds one type: each type a key's cells take gets
			// a column of its own, NULL where the cell is another.
			byType := map[expr.SQLType][]expr.Value{}
			for i, d := range docs {
				if x := cellOf(d.Lookup(k)); !x.Null {
					if byType[x.Typ] == nil {
						byType[x.Typ] = slices.Clone(nulls)
						types = append(types, x.Typ)
					}
					byType[x.Typ][i] = x
				}
			}
			for _, t := range types[len(cols):] {
				cols = append(cols, byType[t])
			}
		}
		for e, x := range edge {
			types = append(types, typed[e])
			cols = append(cols, append(slices.Clone(nulls[:len(docs)]), x))
		}
		for c, cells := range cols {
			vecs, want := columnVectors(types[c], cells)
			vecs = append(vecs, NullVector(types[c]))
			want = append(want, nulls)
			for l := range vecs {
				got := []byte{'['}
				for i := 0; i < rows; i++ {
					if i > 0 {
						got = append(got, ',')
					}
					got = AppendJSON(got, &vecs[l], i)
				}
				got = append(got, ']')
				if exp := encodeAny(t, want[l]); !bytes.Equal(got, exp) {
					t.Fatalf("column %d layout %d:\n got %s\nwant %s", c, l, got, exp)
				}
			}
		}
	})
}
