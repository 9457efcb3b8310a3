package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
)

// valueAccess is raw JSON's read of one document, the ground truth the
// conformance tests compute straight from value trees.
func valueAccess(doc jsonvalue.Value, path keypath.Path, want expr.SQLType) expr.Value {
	return treeAccess(doc, path, want, &scanCounters{})
}

// castTexts cover every scalar kind and the texts casts treat with care:
// padded and decimal numeric strings, a date, boolean words, integers
// a column once read as booleans.
var castTexts = []string{`7`, `0`, `-0`, `1.5`, `1.0`, `12345678901234567890`, `" 1.5"`, `" 12 "`,
	`"12"`, `"12.50"`, `"abc"`, `"2020-01-02"`, `true`, `false`, `"t"`, `null`}

// castTypes are the casts a column can serve.
var castTypes = []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TBool, expr.TTimestamp}

// castCorpus is two tiles of 64 documents: in the first every document
// holds x = text, so the tile extracts it; in the second only 16 do,
// too few to extract, so those rows read x from their documents. Sinew
// extracts x too (80 of 128 documents).
func castCorpus(text string) ([][]byte, LoaderConfig) {
	var docs [][]byte
	for i := 0; i < 128; i++ {
		doc := `{"y":1}`
		if i < 64 || i%4 == 0 {
			doc = `{"x":` + text + `}`
		}
		docs = append(docs, []byte(doc))
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 64
	cfg.Reorder = false
	return docs, cfg
}

// castRelations loads docs in every format the cast test compares with
// raw JSON, keyed by label: each loader's format and the Tiles relation
// persisted as a DirTable.
func castRelations(t *testing.T, docs [][]byte, cfg LoaderConfig) map[string]Relation {
	t.Helper()
	rels := map[string]Relation{}
	for _, k := range []FormatKind{KindJSONB, KindSinew, KindTiles, KindShredded} {
		l, _ := NewLoader(k, cfg)
		rel, err := l.Load(string(k), docs, 2)
		if err != nil {
			t.Fatalf("%s load: %v", k, err)
		}
		rels[string(k)] = rel
	}
	rels["DirTable"] = memDir(t, cfg, rels[string(KindTiles)])
	return rels
}

// TestCastsAgreeAcrossFormats pins the one meaning of ->>'x'::T
// (castJSON): for every scalar text and cast, every format answers as
// raw JSON does, whether a column or the document serves the cell — on
// a table where one tile extracted x and the other did not — and
// counts the same cast errors: one per non-null value the cast turns
// into NULL.
func TestCastsAgreeAcrossFormats(t *testing.T) {
	var accs []Access
	for _, typ := range castTypes {
		accs = append(accs, NewAccess(typ, "x"))
	}
	for _, text := range castTexts {
		docs, cfg := castCorpus(text)
		l, _ := NewLoader(KindJSON, cfg)
		jsonRel, err := l.Load("json", docs, 2)
		if err != nil {
			t.Fatal(err)
		}
		var jsonSt obs.ScanStats
		want := collectScanStats(jsonRel, accs, 2, &jsonSt)
		// The 80 rows holding x are those with a cell that is not NULL
		// (::Text never is); each NULL cell of theirs is a cast error.
		var wantErrs int64
		for _, row := range want {
			if nulls := strings.Count(row, "NULL"); nulls < len(accs) {
				wantErrs = 80 * int64(nulls)
				break
			}
		}
		if got := jsonSt.Counts().CastErrors; got != wantErrs {
			t.Errorf("%s: JSON counted %d cast errors, want %d", text, got, wantErrs)
		}

		rels := castRelations(t, docs, cfg)
		if text != "null" {
			tl := rels[string(KindTiles)].(TileIntrospector).Tiles()
			if len(tl) != 2 || len(tl[0].ColumnsForPath("x")) != 1 || len(tl[1].ColumnsForPath("x")) != 0 {
				t.Fatalf("%s: want x extracted in the first tile only", text)
			}
			if got := rels[string(KindSinew)].(*sinew).ExtractedPaths(); !reflect.DeepEqual(got, []string{"x"}) {
				t.Fatalf("%s: Sinew extracted %v, want x", text, got)
			}
		}
		for label, rel := range rels {
			var st obs.ScanStats
			if got := collectScanStats(rel, accs, 2, &st); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: got %v\nwant %v", text, label, dedup(got), dedup(want))
			}
			if got := st.Counts().CastErrors; got != wantErrs {
				t.Errorf("%s %s: counted %d cast errors, want %d", text, label, got, wantErrs)
			}
		}
	}
}

// dedup lists the distinct rows of a sorted scan with their counts.
func dedup(rows []string) []string {
	var out []string
	for i := 0; i < len(rows); {
		j := i
		for j < len(rows) && rows[j] == rows[i] {
			j++
		}
		out = append(out, fmt.Sprintf("%s ×%d", rows[i], j-i))
		i = j
	}
	return out
}

// FuzzScalarCast reads a random scalar under a random cast from a tile
// column, from binary JSON and from raw JSON; all three must agree. `go
// test` runs the seeds, among them every cast that once split the
// formats; `go test -run '^$' -fuzz FuzzScalarCast ./internal/storage`
// digs.
func FuzzScalarCast(f *testing.F) {
	for _, seed := range []struct {
		text string
		typ  expr.SQLType
	}{
		{`7`, expr.TBool}, {`0`, expr.TBool}, {`-0`, expr.TBool},
		{`" 1.5"`, expr.TFloat}, {`" 12 "`, expr.TFloat},
		{`"12.50"`, expr.TBigInt}, {`"2020-01-02"`, expr.TText}, {`"1e2"`, expr.TBigInt},
	} {
		f.Add(seed.text, uint8(slices.Index(castTypes, seed.typ)))
	}
	f.Fuzz(func(t *testing.T, text string, typ uint8) {
		want := NewAccess(castTypes[int(typ)%len(castTypes)], "x")
		doc := []byte(`{"x":` + text + `}`)
		v, err := jsontext.Parse(doc)
		if err != nil || len(v.Members()) != 1 {
			t.Skip()
		}
		if k := v.Get("x").Kind(); k == jsonvalue.KindObject || k == jsonvalue.KindArray {
			t.Skip()
		}
		docs := bytes.Split(bytes.Repeat(append(doc, '\n'), 64), []byte("\n"))[:64]
		var rows [][]string
		for _, k := range []FormatKind{KindJSON, KindJSONB, KindTiles} {
			l, _ := NewLoader(k, DefaultLoaderConfig())
			rel, err := l.Load(string(k), docs, 1)
			if err != nil {
				t.Skip() // past a tape limit: every format rejects it
			}
			rows = append(rows, collectScan(rel, []Access{want}, 1))
		}
		if !reflect.DeepEqual(rows[1], rows[0]) || !reflect.DeepEqual(rows[2], rows[0]) {
			t.Fatalf("%s::%s: JSON %v, JSONB %v, Tiles %v", text, want.Type, rows[0][:1], rows[1][:1], rows[2][:1])
		}
	})
}
