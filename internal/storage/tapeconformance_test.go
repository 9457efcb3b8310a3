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
	"repro/internal/tile"
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
	rel.ScanWithStats(context.Background(), accesses, workers, func(w int, row []expr.Value) {
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
}

// TestParsedBatchTreeFallback: the insert path (a ParsedBatch filled one
// document at a time, then built) takes the same tree fallback past the
// tape limits as a whole-input load — only for the partitions holding an
// over-limit document — still rejects malformed documents, and builds
// the same tiles as BuildTilesFromLines.
func TestParsedBatchTreeFallback(t *testing.T) {
	lines := make([][]byte, 100)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(`{"id":%d,"t":"x%d"}`, i, i%3))
	}
	lines[70] = []byte(`{"id":1,"tags":["a","b","c","d","e"]}`)
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize, cfg.Tile.PartitionSize = 16, 2

	// Only document 70 exceeds these limits: its partition, [64, 96),
	// builds from trees and every other from tapes.
	defer jsontape.SetLimitsForTesting(4, 1<<20)()
	for _, l := range lines {
		if err := jsontape.Parse(l, new(jsontape.Doc)); jsontape.IsLimit(err) != bytes.Equal(l, lines[70]) {
			t.Fatalf("%s: limit error %v", l, err)
		}
	}
	var m tile.Metrics
	var b ParsedBatch
	for _, l := range lines {
		if err := b.Add(l, &m); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := b.Add([]byte(`{"bad":`), &m); err == nil {
		t.Fatal("Add accepted malformed input")
	}
	if b.Len() != len(lines) {
		t.Fatalf("batch holds %d documents, want %d", b.Len(), len(lines))
	}
	fromBatch, err := BuildTilesFromBatch("b", &b, cfg, 2, &m)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.DocsTree != 32 || s.DocsTape != 68 || s.ParseNanos == 0 {
		t.Errorf("%d tree / %d tape documents, parse %d ns; want 32 / 68, parse > 0", s.DocsTree, s.DocsTape, s.ParseNanos)
	}
	if b.Len() != 0 {
		t.Errorf("batch holds %d documents after the build", b.Len())
	}
	fromLines, err := BuildTilesFromLines("l", lines, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, c := fromBatch.(TileIntrospector).Tiles(), fromLines.(TileIntrospector).Tiles()
	if len(a) != len(c) {
		t.Fatalf("%d tiles from the batch, %d from the lines", len(a), len(c))
	}
	for ti := range a {
		for i := 0; i < a[ti].NumRows(); i++ {
			if !bytes.Equal(a[ti].RawBytes(i), c[ti].RawBytes(i)) {
				t.Fatalf("tile %d row %d differs", ti, i)
			}
		}
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
