package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsongen"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Cross-format conformance: for randomly generated document sets and
// randomly chosen accesses, every format's scan must agree with the
// ground truth computed directly on the parsed value trees. This is
// the strongest correctness property the formats share — whatever the
// layout (tiles, global columns, stripes, raw text), the answers are
// identical.
func TestConformanceRandomDocsAllFormats(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		nDocs := 16 + r.Intn(80)
		docs := make([]jsonvalue.Value, nDocs)
		lines := make([][]byte, nDocs)
		for i := range docs {
			docs[i] = jsongen.RandomObject(r, 3)
			lines[i] = jsontext.Serialize(docs[i])
		}

		// Sample accesses from the observed paths, plus one absent path.
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
		if len(cands) == 0 {
			continue
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

		// Ground truth straight from the value trees. Container-valued
		// text cells are canonicalized (sorted keys): the binary format
		// deliberately does not preserve input key order (§5), so a ->>
		// rendering of an object differs textually, not semantically,
		// between the raw-text and binary formats.
		truth := make([][]string, nDocs)
		for i, d := range docs {
			row := make([]string, len(accesses))
			for ai, a := range accesses {
				row[ai] = normalizeCell(valueAccess(d, a.Path, a.Type).String())
			}
			truth[i] = row
		}
		truthSet := map[string]int{}
		for _, row := range truth {
			truthSet[joinRow(row)]++
		}

		cfg := DefaultLoaderConfig()
		cfg.Tile.TileSize = 16
		for _, k := range allKinds() {
			l, _ := NewLoader(k, cfg)
			rel, err := l.Load("conf", lines, 2)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, k, err)
			}
			verifyConformance(t, trial, string(k), rel, accesses, truthSet)

			// The Tiles relation additionally round-trips through a
			// segment file: the reopened disk-backed relation must pass
			// the identical row and batch checks.
			if k != KindTiles {
				continue
			}
			srel := memSegment(t, rel, cfg)
			verifyConformance(t, trial, "Segment", srel, accesses, truthSet)
			var st obs.ScanStats
			batchMultisetStats(srel, accesses, 2, &st)
			if err := st.Err(); err != nil {
				t.Fatalf("trial %d segment scan error: %v", trial, err)
			}
		}
	}
}

// memSegment writes a tile-backed relation as a segment object of a
// fresh in-memory store and reopens it as a disk-backed relation,
// closed with the test.
func memSegment(t testing.TB, rel Relation, cfg LoaderConfig) *segRelation {
	t.Helper()
	store := blockstore.NewMem()
	if err := WriteSegmentStore(store, "t.seg", rel); err != nil {
		t.Fatalf("segment write: %v", err)
	}
	srel, err := OpenSegmentStore(rel.Name(), store, "t.seg", 0, bufpool.New(0), cfg)
	if err != nil {
		t.Fatalf("segment open: %v", err)
	}
	t.Cleanup(func() { srel.Close() })
	return srel
}

// verifyConformance checks one relation's row-at-a-time scan — and,
// when the format supports it, its vectorized batch scan — against the
// ground-truth multiset of rows.
func verifyConformance(t *testing.T, trial int, label string, rel Relation, accesses []Access, truthSet map[string]int) {
	t.Helper()
	compare := func(path string, got map[string]int) {
		t.Helper()
		if len(got) != len(truthSet) {
			t.Fatalf("trial %d %s %s: %d distinct rows, want %d\n got: %v\nwant: %v",
				trial, label, path, len(got), len(truthSet), got, truthSet)
		}
		for key, n := range truthSet {
			if got[key] != n {
				t.Fatalf("trial %d %s %s: row %q count %d, want %d", trial, label, path, key, got[key], n)
			}
		}
	}

	got := map[string]int{}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	scanRows(context.Background(), rel, accesses, 2, func(w int, row []expr.Value) {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = normalizeCell(v.String())
		}
		key := joinRow(cells)
		<-mu
		got[key]++
		mu <- struct{}{}
	}, nil)
	compare("rows", got)

	bs, ok := rel.(BatchScanner)
	if !ok {
		return
	}
	got = map[string]int{}
	bs.ScanBatches(context.Background(), accesses, 2, func(w int, b *vec.Batch) {
		rows := make([]string, 0, b.Rows())
		emitRow := func(i int) {
			cells := make([]string, len(b.Cols))
			for ci := range b.Cols {
				cells[ci] = normalizeCell(b.Cols[ci].Value(i).String())
			}
			rows = append(rows, joinRow(cells))
		}
		if b.Sel != nil {
			for _, i := range b.Sel {
				emitRow(int(i))
			}
		} else {
			for i := 0; i < b.Len; i++ {
				emitRow(i)
			}
		}
		<-mu
		for _, key := range rows {
			got[key]++
		}
		mu <- struct{}{}
	}, nil)
	compare("batches", got)
}

// normalizeCell re-serializes container-valued text cells through the
// binary format so key order is canonical.
func normalizeCell(s string) string {
	if len(s) == 0 || (s[0] != '{' && s[0] != '[') {
		return s
	}
	v, err := jsontext.ParseString(s)
	if err != nil {
		return s
	}
	return jsonb.NewDoc(jsonb.Encode(v)).JSON()
}

func joinRow(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += "\x1f"
		}
		out += c
	}
	return out
}

// TestConformanceDictColumns drives text columns of both layouts
// through every scan path: in one corpus "level" and "service" have a
// handful of values (NDV/rows under the dictionary threshold) and
// "msg" is unique per document (above it), so the data picks a
// dictionary for the first two and the arena for the third. In-memory
// rows and batches and a segment round trip must each answer exactly
// like the raw-JSON relation of the same documents.
func TestConformanceDictColumns(t *testing.T) {
	levels := []string{"debug", "error", "info", "warn"}
	services := []string{"api", "auth", "billing", "cache", "db", "web"}
	nDocs := 300
	docLines := make([][]byte, nDocs)
	for i := 0; i < nDocs; i++ {
		switch {
		case i%11 == 5: // level absent → NULL
			docLines[i] = []byte(fmt.Sprintf(
				`{"id":%d,"service":"%s","msg":"m-%d"}`, i, services[i%len(services)], i))
		default:
			docLines[i] = []byte(fmt.Sprintf(
				`{"id":%d,"level":"%s","service":"%s","msg":"m-%d"}`,
				i, levels[i%len(levels)], services[i%len(services)], i))
		}
	}
	accesses := []Access{
		NewAccess(expr.TBigInt, "id"),
		NewAccess(expr.TText, "level"),
		NewAccess(expr.TText, "service"),
		NewAccess(expr.TText, "msg"),
	}

	// The raw-JSON relation supplies the ground truth.
	lj, _ := NewLoader(KindJSON, DefaultLoaderConfig())
	jsonRel, err := lj.Load("json", docLines, 2)
	if err != nil {
		t.Fatal(err)
	}
	truthSet := map[string]int{}
	scanRows(context.Background(), jsonRel, accesses, 1, func(w int, row []expr.Value) {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = normalizeCell(v.String())
		}
		truthSet[joinRow(cells)]++
	}, nil)

	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 64
	l, _ := NewLoader(KindTiles, cfg)
	rel, err := l.Load("dict", docLines, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantDict := map[string]bool{"level": true, "service": true, "msg": false}
	layouts := map[bool]int{}
	for _, tl := range rel.(TileIntrospector).Tiles() {
		for col, want := range wantDict {
			for _, ci := range tl.ColumnsForPath(NewAccess(expr.TText, col).PathEnc) {
				isDict := tl.Column(ci).Col.IsDict()
				if isDict != want {
					t.Errorf("column %s: dictionary layout %v, want %v", col, isDict, want)
				}
				layouts[isDict]++
			}
		}
	}
	if layouts[true] == 0 || layouts[false] == 0 {
		t.Fatalf("text columns by layout (dict: true) = %v, want both layouts", layouts)
	}
	verifyConformance(t, 0, "DictTiles", rel, accesses, truthSet)

	// Segment round trip: dictionaries persist as separate blocks.
	srel := memSegment(t, rel, cfg)
	verifyConformance(t, 0, "DictSegment", srel, accesses, truthSet)
	var st obs.ScanStats
	batchMultisetStats(srel, accesses, 2, &st)
	if err := st.Err(); err != nil {
		t.Fatalf("dict segment scan error: %v", err)
	}
}

func TestConcatTilesFastPath(t *testing.T) {
	lt, _ := NewLoader(KindTiles, DefaultLoaderConfig())
	relA, _ := lt.Load("a", lines(`{"x":1}`, `{"x":2}`), 1)
	relB, _ := lt.Load("b", lines(`{"x":3}`), 1)
	cc := Concat("ab", relA, relB)
	if _, ok := cc.(*tilesRelation); !ok {
		t.Fatal("tiles+tiles concat did not merge natively")
	}
	if cc.Stats() == nil || cc.Stats().RowCount() != 3 {
		t.Error("merged stats wrong")
	}
	if cc.Stats().PathCount("x") != 3 {
		t.Errorf("PathCount(x) = %d", cc.Stats().PathCount("x"))
	}
}

// TestEmptyContainerVisibility is the regression test for the
// conformance-discovered bug: a tile whose documents carry a key with
// an empty container value must not claim the path is absent — ->> of
// {} is "{}", not NULL, and the tile must not be skipped.
func TestEmptyContainerVisibility(t *testing.T) {
	data := lines(`{"geo":{},"id":1}`, `{"geo":{},"id":2}`, `{"geo":[],"id":3}`)
	for _, k := range allKinds() {
		l, _ := NewLoader(k, DefaultLoaderConfig())
		rel, err := l.Load("e", data, 1)
		if err != nil {
			t.Fatal(err)
		}
		acc := []Access{NewAccess(expr.TText, "geo")}
		acc[0].NullRejecting = true // invite skipping; it must not trigger
		rows := collectScan(rel, acc, 1)
		want := []string{"[]", "{}", "{}"}
		if len(rows) != 3 || rows[0] != want[0] || rows[1] != want[1] || rows[2] != want[2] {
			t.Errorf("%s: rows = %v, want %v", k, rows, want)
		}
	}
}
