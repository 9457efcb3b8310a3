package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsongen"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
)

// Format conformance (DESIGN.md §6.8): for every storage format and
// several worker counts, the tape-built relation answers exactly what
// the raw-JSON format, which re-parses each document per access,
// answers.

// tapeConfSample derives a handful of typed accesses from the
// documents, plus one absent path.
func tapeConfSample(r *rand.Rand, docs []jsonvalue.Value) []Access {
	type cand struct {
		path keypath.Path
		t    expr.SQLType
	}
	var cands []cand
	seen := map[string]bool{}
	for _, d := range docs {
		keypath.Collect(d, 4, func(p keypath.Path, vt keypath.ValueType, v jsonvalue.Value) {
			enc := p.Encode()
			if seen[enc] {
				return
			}
			seen[enc] = true
			var st expr.SQLType
			switch vt {
			case keypath.TypeBigInt:
				st = expr.TBigInt
			case keypath.TypeDouble:
				st = expr.TFloat
			case keypath.TypeBool:
				st = expr.TBool
			default:
				st = expr.TText
			}
			cands = append(cands, cand{path: p, t: st})
		})
	}
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > 5 {
		cands = cands[:5]
	}
	cands = append(cands, cand{path: keypath.NewPath("definitely", "absent"), t: expr.TBigInt})
	accesses := make([]Access, len(cands))
	for i, c := range cands {
		accesses[i] = NewAccessPath(c.t, c.path)
	}
	return accesses
}

// normRowMultiset collects a relation's row scan as a multiset with
// container cells canonicalized.
func normRowMultiset(rel Relation, accesses []Access, workers int) map[string]int {
	got := map[string]int{}
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	scanRows(context.Background(), rel, accesses, workers, func(w int, row []expr.Value) {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = normalizeCell(v.String())
		}
		key := joinRow(cells)
		<-mu
		got[key]++
		mu <- struct{}{}
	}, nil)
	return got
}

func TestTapeMatchesTreeAllFormats(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		nDocs := 24 + r.Intn(72)
		docs := make([]jsonvalue.Value, nDocs)
		docLines := make([][]byte, nDocs)
		for i := range docs {
			docs[i] = jsongen.RandomObject(r, 3)
			docLines[i] = jsontext.Serialize(docs[i])
		}
		accesses := tapeConfSample(r, docs)
		cfg := DefaultLoaderConfig()
		cfg.Tile.TileSize = 16
		jl, _ := NewLoader(KindJSON, cfg)
		jsonRel, err := jl.Load("conf", docLines, 1)
		if err != nil {
			t.Fatal(err)
		}
		truthSet := normRowMultiset(jsonRel, accesses, 1)

		for _, k := range allKinds() {
			for _, workers := range []int{1, 4} {
				l, _ := NewLoader(k, cfg)
				rel, err := l.Load("conf", docLines, workers)
				if err != nil {
					t.Fatalf("trial %d %s w%d: %v", trial, k, workers, err)
				}
				// Row and batch scans against the raw-JSON truth.
				verifyConformance(t, trial, string(k), rel, accesses, truthSet)
				if k != KindTiles {
					continue
				}
				// Directory-table round trip of the tile relation.
				dt := memDir(t, cfg, rel)
				verifyConformance(t, trial, "dir", dt, accesses, truthSet)
				var st obs.ScanStats
				batchMultisetStats(dt, accesses, workers, &st)
				if err := st.Err(); err != nil {
					t.Fatalf("trial %d directory table scan: %v", trial, err)
				}
			}
		}
	}
}

// TestOverLimitIsIngestError: a document past the tape limits is an
// ingest error naming the limit, exactly like a syntax error.
// ParsedBatch.Add rejects it and adds nothing — the batch builds the
// tiles of the documents it accepted — and every format's Load and
// BuildTilesStar fail on the lowest over-limit document at any worker
// count.
func TestOverLimitIsIngestError(t *testing.T) {
	lines := make([][]byte, 100)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"id":%d,"t":"x%d"}`, i, i%3))
	}
	over := []byte(`{"id":1,"tags":["a","b","c","d","e"]}`)
	lines[33], lines[70] = over, over
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize, cfg.Tile.PartitionSize = 16, 2

	// Only the five-element array exceeds these limits.
	defer jsontape.SetLimitsForTesting(4, 1<<20)()
	var b ParsedBatch
	var accepted [][]byte
	for i, l := range lines {
		err := b.Add(l, nil)
		if jsontape.IsLimit(err) != bytes.Equal(l, over) || err != nil && !jsontape.IsLimit(err) {
			t.Fatalf("Add of document %d: %v", i, err)
		}
		if err == nil {
			accepted = append(accepted, l)
		}
	}
	if b.Len() != len(lines)-2 {
		t.Fatalf("batch holds %d documents, want %d", b.Len(), len(lines)-2)
	}
	fromBatch := BuildTilesFromBatch("b", &b, cfg, 2, nil)
	fromLines, err := BuildTilesFromLines("l", accepted, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := fromBatch.(TileIntrospector).Tiles(), fromLines.(TileIntrospector).Tiles()
	if len(x) != len(y) {
		t.Fatalf("%d tiles from the batch, %d from the lines", len(x), len(y))
	}
	for ti := range x {
		for i := 0; i < x[ti].NumRows(); i++ {
			if !bytes.Equal(x[ti].RawBytes(i), y[ti].RawBytes(i)) {
				t.Fatalf("tile %d row %d differs", ti, i)
			}
		}
	}

	const want = "document 33: jsontape: container size exceeds tape limits"
	for _, workers := range []int{1, 2, 8} {
		for _, k := range allKinds() {
			l, _ := NewLoader(k, cfg)
			if _, err := l.Load("over", lines, workers); err == nil || err.Error() != want || !jsontape.IsLimit(err) {
				t.Errorf("%s w%d: error %v, want %q", k, workers, err, want)
			}
		}
		_, err := BuildTilesStar("over", lines, cfg, workers, keypath.NewPath("id"), keypath.NewPath("tags"))
		if err == nil || err.Error() != want {
			t.Errorf("BuildTilesStar w%d: error %v, want %q", workers, err, want)
		}
	}
}

// TestParseErrorDeterminism locks the reported load error to the
// lowest failing document index regardless of format or worker count:
// with the tape limits shrunk, the over-limit document 9 ahead of the
// syntax errors at 17 and 41, named with its limit; with the real
// limits, document 17 with its byte offset.
func TestParseErrorDeterminism(t *testing.T) {
	docLines := make([][]byte, 64)
	for i := range docLines {
		docLines[i] = []byte(`{"ok":true}`)
	}
	docLines[9] = []byte(`{"tags":[1,2,3,4,5]}`)
	docLines[17] = []byte(`[1,2,`)
	docLines[41] = []byte(`{"x":}`)

	for _, limited := range []bool{true, false} {
		var want string
		for _, k := range allKinds() {
			for _, workers := range []int{1, 2, 8} {
				restore := func() {}
				if limited {
					restore = jsontape.SetLimitsForTesting(4, 1<<20)
				}
				l, _ := NewLoader(k, DefaultLoaderConfig())
				_, err := l.Load("bad", docLines, workers)
				restore()
				if err == nil {
					t.Fatalf("%s w%d limited=%v: expected error", k, workers, limited)
				}
				msg := err.Error()
				if limited && msg != "document 9: jsontape: container size exceeds tape limits" {
					t.Fatalf("%s w%d: error %q does not name document 9 and its limit", k, workers, msg)
				}
				if !limited && (!strings.Contains(msg, "document 17") || !strings.Contains(msg, "offset")) {
					t.Fatalf("%s w%d: error %q does not report document 17 with a byte offset", k, workers, msg)
				}
				if want == "" {
					want = msg
				} else if msg != want {
					t.Fatalf("%s w%d limited=%v: error %q differs from %q", k, workers, limited, msg, want)
				}
			}
		}
	}
}
