package segment

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/jsonb"
	"repro/internal/jsontext"
	"repro/internal/tile"
)

// docList is a docSource over encoded documents.
type docList [][]byte

func (d docList) NumRows() int          { return len(d) }
func (d docList) RawBytes(i int) []byte { return d[i] }

// splitDocs splits docs as one run: the split keys, sorted, and one
// payload per key then the residual's.
func splitDocs(docs docSource) ([]string, [][]byte) {
	r := []docRun{{hi: docs.NumRows()}}
	r[0].count(docs)
	keys := splitKeys(r)
	r[0].write(docs, keys)
	return keys, r[0].parts
}

// splitJoin splits docs and checks every part decodes and every
// document reassembles to itself byte for byte, and that every key of
// keys reads from its part (or the residual) what Doc.Get reads from
// the whole document. It returns the split keys.
func splitJoin(t testing.TB, docs [][]byte, keys []string) []string {
	t.Helper()
	split, payloads := splitDocs(docList(docs))
	if len(payloads) != len(split)+1 {
		t.Fatalf("%d payloads for %d split keys", len(payloads), len(split))
	}
	tm := &TileMeta{Rows: len(docs), Docs: make([]DocPart, len(split))}
	for p, k := range split {
		tm.Docs[p].Key = k
	}
	dirs := make([][][]byte, len(payloads))
	for p := range payloads {
		var err error
		if dirs[p], err = decodeDocs(payloads[p], len(docs)); err != nil {
			t.Fatalf("part %d: %v", p, err)
		}
	}
	var j Joiner
	for i, d := range docs {
		got, err := j.Join(nil, tm, dirs, i)
		if err != nil || !bytes.Equal(got, d) {
			t.Fatalf("document %d reassembles to %x (%v), want %x", i, got, err, d)
		}
		for _, k := range keys {
			p := tm.DocPart(k)
			var v jsonb.Doc
			var ok bool
			if b := dirs[p][i]; p < len(split) {
				v, ok = jsonb.NewDoc(b), len(b) > 0
			} else {
				v, ok = jsonb.NewDoc(b).Get(k)
			}
			want, wok := jsonb.NewDoc(d).Get(k)
			if ok != wok || (ok && !bytes.Equal(v.Bytes(), want.Bytes())) {
				t.Fatalf("document %d key %q: part %d reads %x (%v), Get %x (%v)", i, k, p, v.Bytes(), ok, want.Bytes(), wok)
			}
		}
	}
	return split
}

// encodeLines encodes each line that parses as JSON.
func encodeLines(lines [][]byte) [][]byte {
	var docs [][]byte
	for _, l := range lines {
		if v, err := jsontext.Parse(l); err == nil {
			docs = append(docs, jsonb.Encode(v))
		}
	}
	return docs
}

// TestDocSplitEdges: a non-object root, {}, a document of residual
// keys only, JSON null against an absent key, and a key only some rows
// hold all reassemble, read right by key, and survive a segment round
// trip through Docs.
func TestDocSplitEdges(t *testing.T) {
	big := strings.Repeat("x", 200)
	lines := []string{
		fmt.Sprintf(`{"big":%q,"n":"0123456789","s":1}`, big),
		fmt.Sprintf(`{"big":%q,"s":2}`, big), // n absent
		`[1,2,3]`,
		`{}`,
		`{"t":true}`, // residual keys only
		`"str"`,
		`{"big":"y","t":false,"n":null}`, // n null
		`{"n":"abcdefghij"}`,             // split keys only: no residual
	}
	var raw [][]byte
	for _, l := range lines {
		raw = append(raw, []byte(l))
	}
	docs := encodeLines(raw)
	if len(docs) != len(lines) {
		t.Fatal("an edge document does not parse")
	}
	split := splitJoin(t, docs, []string{"big", "n", "s", "t", "absent", ""})
	if !slices.Equal(split, []string{"big", "n"}) {
		t.Fatalf("split keys %q, want big and n (s and t hold under 1 %%)", split)
	}
	_, payloads := splitDocs(docList(docs))
	dirs := make([][][]byte, len(payloads))
	for p := range payloads {
		dirs[p], _ = decodeDocs(payloads[p], len(docs))
	}
	if n := dirs[1]; len(n[1]) != 0 || len(n[6]) != 1 {
		t.Errorf("n: absent row holds %d bytes, null row %d; want 0 and 1", len(n[1]), len(n[6]))
	}
	if rest := dirs[2]; len(rest[7]) != 0 || !bytes.Equal(rest[2], docs[2]) || !bytes.Equal(rest[3], docs[3]) {
		t.Errorf("residual: split-only row %x, array root %x, {} %x", rest[7], rest[2], rest[3])
	}

	checkDocsRoundTrip(t, "edges", []*tile.Tile{buildTile(t, lines...)})
}

// checkDocsRoundTrip writes tiles to a segment and checks that Docs
// returns every tile's documents byte for byte.
func checkDocsRoundTrip(t *testing.T, name string, tiles []*tile.Tile) {
	t.Helper()
	store := putSegment(t, tiles...)
	r, err := OpenStore(store, testSeg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for ti, tl := range tiles {
		docs, _, err := r.Docs(ti)
		if err != nil {
			t.Fatalf("%s tile %d: %v", name, ti, err)
		}
		for i := range docs {
			if !bytes.Equal(docs[i], tl.RawBytes(i)) {
				t.Fatalf("%s tile %d document %d differs after the round trip", name, ti, i)
			}
		}
	}
}

// FuzzDocSplit: random documents, one JSON text per line, split by
// top-level key and reassembled, equal their encoding byte for byte,
// and each top-level key (and an absent one) reads from its part what
// Doc.Get reads from the document. `go test` runs the seeds; `go test
// -run '^$' -fuzz FuzzDocSplit ./internal/segment` explores.
func FuzzDocSplit(f *testing.F) {
	f.Add([]byte(`{"a":1,"b":"x"}` + "\n" + `{"a":2}` + "\n" + `[1]`))
	f.Add([]byte(`{"big":"` + strings.Repeat("y", 300) + `","t":1,"u":null}` + "\n" + `{}` + "\n" + `{"t":[{"x":1}]}`))
	f.Add([]byte(`{"k":{"n":[1,2,{"m":null}]},"k2":"0.5"}` + "\n" + `"s"` + "\n" + `null` + "\n" + `{"k":null}`))
	f.Add([]byte(`{"a":1,"a":2,"b":3}` + "\n" + `{"":1,"é":2}`))
	f.Fuzz(func(t *testing.T, text []byte) {
		docs := encodeLines(bytes.Split(text, []byte("\n")))
		if len(docs) == 0 {
			return
		}
		keys := map[string]bool{"absent": true}
		for _, d := range docs {
			for _, k := range jsonb.NewDoc(d).Keys() {
				keys[k] = true
			}
		}
		var probe []string
		for k := range keys {
			probe = append(probe, k)
		}
		splitJoin(t, docs, probe)
	})
}
