package storage

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsongen"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
)

// Tape-vs-tree conformance (DESIGN.md §6.8): for every storage format
// and several worker counts, loading through the structural-tape path
// must produce results identical to the boxed jsonvalue-tree path. The
// tree reference is the real LimitError fallback, forced by shrinking
// the tape limits: (0, 0) sends every document down it, (4, 1<<20)
// only the documents with a string or container longer than four, so
// one load mixes both paths.

// loadLimited loads lines with the tape limits shrunk to (span, off).
func loadLimited(t *testing.T, k FormatKind, cfg LoaderConfig, lines [][]byte, workers, span, off int) Relation {
	t.Helper()
	defer jsontape.SetLimitsForTesting(span, off)()
	l, _ := NewLoader(k, cfg)
	rel, err := l.Load("conf", lines, workers)
	if err != nil {
		t.Fatalf("%s w%d limits (%d, %d): %v", k, workers, span, off, err)
	}
	return rel
}

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
	rel.Scan(accesses, workers, func(w int, row []expr.Value) {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = normalizeCell(v.String())
		}
		key := joinRow(cells)
		<-mu
		got[key]++
		mu <- struct{}{}
	})
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

		for _, k := range allKinds() {
			for _, workers := range []int{1, 4} {
				cfg := DefaultLoaderConfig()
				cfg.Tile.TileSize = 16
				treeRel := loadLimited(t, k, cfg, docLines, workers, 0, 0)
				truthSet := normRowMultiset(treeRel, accesses, workers)

				lp, _ := NewLoader(k, cfg)
				tapeRel, err := lp.Load("conf", docLines, workers)
				if err != nil {
					t.Fatalf("trial %d %s w%d tape: %v", trial, k, workers, err)
				}
				// Row and batch scans against the tree-path truth.
				verifyConformance(t, trial, string(k)+"-tape", tapeRel, accesses, truthSet)
				mixedRel := loadLimited(t, k, cfg, docLines, workers, 4, 1<<20)
				verifyConformance(t, trial, string(k)+"-mixed", mixedRel, accesses, truthSet)

				if k != KindTiles {
					continue
				}
				// The tile layouts must agree byte for byte: same tile
				// boundaries and the same JSONB raw storage per row.
				treeTiles := treeRel.(TileIntrospector).Tiles()
				tapeTiles := tapeRel.(TileIntrospector).Tiles()
				if len(treeTiles) != len(tapeTiles) {
					t.Fatalf("trial %d w%d: %d tree tiles vs %d tape tiles",
						trial, workers, len(treeTiles), len(tapeTiles))
				}
				for ti := range treeTiles {
					a, b := treeTiles[ti], tapeTiles[ti]
					if a.NumRows() != b.NumRows() {
						t.Fatalf("trial %d tile %d rows differ", trial, ti)
					}
					for i := 0; i < a.NumRows(); i++ {
						if !bytes.Equal(a.RawBytes(i), b.RawBytes(i)) {
							t.Fatalf("trial %d tile %d raw doc %d differs", trial, ti, i)
						}
					}
				}

				// Segment round trip of the tape-loaded relation.
				srel := memSegment(t, tapeRel, cfg)
				verifyConformance(t, trial, "tape-segment", srel, accesses, truthSet)
				if err := srel.Err(); err != nil {
					t.Fatalf("trial %d segment scan: %v", trial, err)
				}
			}
		}
	}

	// ValidateDoc takes the same fallback past the limits.
	defer jsontape.SetLimitsForTesting(0, 0)()
	if err := ValidateDoc([]byte(`{"id":1,"tags":["a","b"]}`)); err != nil {
		t.Fatalf("ValidateDoc under limits: %v", err)
	}
	if err := ValidateDoc([]byte(`{"bad":`)); err == nil {
		t.Fatal("ValidateDoc accepted malformed input")
	}
}

// TestParseErrorDeterminism locks the reported load error to the
// lowest failing document index — with its byte offset — regardless of
// format, worker count, or ingest path (tape, or every document forced
// onto the tree fallback).
func TestParseErrorDeterminism(t *testing.T) {
	docLines := make([][]byte, 64)
	for i := range docLines {
		docLines[i] = []byte(`{"ok":true}`)
	}
	// Failures at 9, 17, and 41: index 9 must always win.
	docLines[41] = []byte(`{"x":}`)
	docLines[9] = []byte(`{"key": tru}`)
	docLines[17] = []byte(`[1,2,`)

	var want string
	for _, k := range allKinds() {
		for _, workers := range []int{1, 2, 8} {
			for _, treeIngest := range []bool{false, true} {
				restore := func() {}
				if treeIngest {
					restore = jsontape.SetLimitsForTesting(0, 0)
				}
				l, _ := NewLoader(k, DefaultLoaderConfig())
				_, err := l.Load("bad", docLines, workers)
				restore()
				if err == nil {
					t.Fatalf("%s w%d tree=%v: expected error", k, workers, treeIngest)
				}
				msg := err.Error()
				if !strings.Contains(msg, "document 9") {
					t.Fatalf("%s w%d tree=%v: error %q does not report document 9", k, workers, treeIngest, msg)
				}
				if !strings.Contains(msg, "offset") {
					t.Fatalf("%s w%d tree=%v: error %q has no byte offset", k, workers, treeIngest, msg)
				}
				if want == "" {
					want = msg
				} else if msg != want {
					t.Fatalf("%s w%d tree=%v: error %q differs from %q", k, workers, treeIngest, msg, want)
				}
			}
		}
	}
}
