package storage

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsongen"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/tile"
	"repro/internal/vec"
)

// walkCorpus is a collection that gives the document walk every shape it
// must get right: an array a of objects holding 0 to 12 elements (past
// the slot cap of 8), with a JSON null as its second element now and
// then; x as a number, a numeric string, a word or a boolean; r written
// twice in the same document (the last one wins); o as an object, a
// JSON null or absent; and m as an object, an array or absent.
func walkCorpus(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		var elems []string
		for j := 0; j < i%13; j++ {
			if j == 1 && i%5 == 0 {
				elems = append(elems, "null")
				continue
			}
			elems = append(elems, fmt.Sprintf(`{"k":%d,"t":"v%d_%d"}`, j, i%7, j))
		}
		xs := []string{fmt.Sprint(i), `"12"`, `"abc"`, `true`}
		doc := fmt.Sprintf(`{"id":%d,"a":[%s],"x":%s`, i, strings.Join(elems, ","), xs[i%4])
		if i%7 == 0 {
			doc += fmt.Sprintf(`,"r":%d,"r":"%d"`, i, i+1)
		}
		switch i % 3 {
		case 0:
			doc += fmt.Sprintf(`,"o":{"b":%d,"c":[1,%d]}`, i, i)
		case 1:
			doc += `,"o":null`
		}
		switch i % 3 {
		case 1:
			doc += fmt.Sprintf(`,"m":{"t":"w%d","u":%d}`, i%5, i)
		case 2:
			doc += fmt.Sprintf(`,"m":["p%d","q"]`, i%5)
		}
		out[i] = []byte(doc + "}")
	}
	return out
}

func slotAccessList(n int, field string, typ expr.SQLType) []Access {
	var out []Access
	for j := 0; j < n; j++ {
		out = append(out, NewAccessPath(typ, keypath.NewPath("a").Slot(j).Child(field)))
	}
	return out
}

// walkAccessSets are the access lists the walk is checked with, each a
// different shape of shared path prefixes.
func walkAccessSets() map[string][]Access {
	sets := map[string][]Access{
		// 14 slots under one prefix: 8 and up are past the slot cap, 12
		// and 13 past every document's array; the leading ones are
		// column-served wherever a tile extracted them.
		"slots": append(slotAccessList(14, "t", expr.TText), NewAccess(expr.TBigInt, "id")),
		// One path under several types, and a repeated key.
		"types": {NewAccess(expr.TBigInt, "x"), NewAccess(expr.TText, "x"), NewAccess(expr.TFloat, "x"),
			NewAccess(expr.TBool, "x"), NewAccess(expr.TBigInt, "r"), NewAccess(expr.TText, "r")},
		// Paths that are prefixes of others, with a JSON null on the way.
		"prefix": {NewAccess(expr.TJSON, "o"), NewAccess(expr.TBigInt, "o", "b"),
			NewAccessPath(expr.TBigInt, keypath.NewPath("o", "c").Slot(1)), NewAccess(expr.TJSON, "o", "c"),
			NewAccessPath(expr.TJSON, keypath.NewPath("a").Slot(1)), NewAccessPath(expr.TText, keypath.NewPath("a").Slot(1).Child("t")),
			NewAccessPath(expr.TJSON, keypath.NewPath("a").Slot(9)), NewAccessPath(expr.TBigInt, keypath.NewPath("a").Slot(9).Child("k"))},
		// A key step on an array, an index step on an object, and both on
		// a scalar: m is either, and no header can tell which.
		"mismatch": {NewAccess(expr.TText, "m", "t"), NewAccess(expr.TBigInt, "m", "u"),
			NewAccessPath(expr.TText, keypath.NewPath("m").Slot(0)), NewAccessPath(expr.TText, keypath.NewPath("m").Slot(1)),
			NewAccessPath(expr.TText, keypath.NewPath("m").Slot(0).Slot(0)), NewAccess(expr.TText, "m", "t", "z"),
			NewAccess(expr.TText, "a", "t")},
	}
	var all []Access
	for _, name := range []string{"slots", "types", "prefix", "mismatch"} {
		all = append(all, sets[name]...)
	}
	sets["all"] = append(all, slotAccessList(12, "k", expr.TBigInt)...)
	return sets
}

// perCellCounts replays the scan of tiles cell by cell with the plans'
// own per-row read (accessPlan.put, docLookup and docPut for a
// document), as the
// scan core read a document-served access before it walked: the
// JSONB fallbacks and cast errors the walk must count too, and the walks
// it must make (the rows of every tile with a document-served access).
// No access narrows.
func perCellCounts(tiles []*tile.Tile, accesses []Access, cfg LoaderConfig) (fallbacks, castErrs, walks int64) {
	hs := headerPaths(accesses, scanCfgOf(cfg).maxSlots)
	var w vec.Buf
	for _, t := range tiles {
		var cnt scanCounters
		doc := false
		for ai, a := range accesses {
			p := planAccess(t, a, hs[ai])
			doc = doc || p.serve == serveDoc
			var col *vec.Vector
			if p.readsColumn() {
				col = &t.Column(p.col).Col.Vector
			}
			w.Reset(a.Type, t.NumRows())
			var docs docRows
			for i := 0; i < t.NumRows(); i++ {
				p.put(&w, i, t, &docs, col, i, a, &cnt)
			}
		}
		if doc {
			walks += int64(t.NumRows())
		}
		fallbacks += cnt.JSONBFallbacks
		castErrs += cnt.CastErrors
	}
	return fallbacks, castErrs, walks
}

// TestDocWalkMatchesJSON checks the one-walk fill against raw JSON:
// every access set, over in-memory tiles, a segment and a DirTable
// behind the simulated object store, at one and three workers, answers
// as raw JSON does, and counts the JSONB fallbacks and cast errors the
// per-access read counts and one walk per row of a tile with a
// document-served access.
func TestDocWalkMatchesJSON(t *testing.T) {
	docs := walkCorpus(400)
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 64
	cfg.Reorder = false // keep objects and arrays of m in one tile
	l, _ := NewLoader(KindJSON, cfg)
	jsonRel, err := l.Load("json", docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, _ = NewLoader(KindTiles, cfg)
	tilesRel, err := l.Load("tiles", docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	tiles := tilesRel.(TileIntrospector).Tiles()
	dt, err := OpenDirStore("dir", blockstore.NewFakeS3(blockstore.NewMem(), blockstore.FakeS3Config{}), nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if err := dt.AppendTiles(tiles, tilesRel.Stats(), 2); err != nil {
		t.Fatal(err)
	}
	rels := map[string]Relation{"tiles": tilesRel, "dir": dt}

	for name, accs := range walkAccessSets() {
		var jsonSt obs.ScanStats
		want := collectScanStats(jsonRel, accs, 2, &jsonSt)
		fallbacks, castErrs, walks := perCellCounts(tiles, accs, cfg)
		if walks == 0 {
			t.Fatalf("%s: no tile serves an access from its documents", name)
		}
		if castErrs != jsonSt.Counts().CastErrors {
			t.Fatalf("%s: per-cell read counts %d cast errors, raw JSON %d", name, castErrs, jsonSt.Counts().CastErrors)
		}
		for label, rel := range rels {
			for _, workers := range []int{1, 3} {
				var st obs.ScanStats
				got := collectScanStats(rel, accs, workers, &st)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s workers=%d:\n got %v\nwant %v", name, label, workers, dedup(got), dedup(want))
				}
				if g := st.Counts().JSONBFallbacks; g != fallbacks {
					t.Errorf("%s %s workers=%d: %d JSONB fallbacks, want %d", name, label, workers, g, fallbacks)
				}
				if g := st.Counts().CastErrors; g != castErrs {
					t.Errorf("%s %s workers=%d: %d cast errors, want %d", name, label, workers, g, castErrs)
				}
				if g := st.Counts().DocWalks; g != walks {
					t.Errorf("%s %s workers=%d: %d document walks, want %d", name, label, workers, g, walks)
				}
			}
		}
	}
}

// slotProbeDocs are tweets whose hashtags array mostly holds 0 to 2
// elements and now and then 10, among delete records that hold none.
func slotProbeDocs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		if i%5 == 4 {
			out[i] = []byte(fmt.Sprintf(`{"delete":{"status":{"id":%d}}}`, i))
			continue
		}
		tags := i % 3
		if i%17 == 0 {
			tags = 10
		}
		var elems []string
		for j := 0; j < tags; j++ {
			elems = append(elems, fmt.Sprintf(`{"text":"tag%d","indices":[%d,%d]}`, (i+j)%11, j, j+4))
		}
		out[i] = []byte(fmt.Sprintf(`{"id":%d,"text":"tweet %d","entities":{"hashtags":[%s]}}`, i, i, strings.Join(elems, ",")))
	}
	return out
}

// slotProbeAccesses reads 24 hashtag slots and the id, the shape of a
// query asking whether any hashtag of a tweet is one value.
func slotProbeAccesses() []Access {
	var accs []Access
	for j := 0; j < 24; j++ {
		accs = append(accs, NewAccessPath(expr.TText, keypath.NewPath("entities", "hashtags").Slot(j).Child("text")))
	}
	return append(accs, NewAccess(expr.TBigInt, "id"))
}

// TestSlotProbeWalksEachRowOnce: 24 slot probes under one array cost one
// document walk per row of a tile that serves any of them from its
// documents, and none on the tiles of delete records, which lack the
// array; each document-served cell still counts one JSONB fallback.
func TestSlotProbeWalksEachRowOnce(t *testing.T) {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 128
	l, _ := NewLoader(KindTiles, cfg)
	rel, err := l.Load("tweets", slotProbeDocs(2000), 2)
	if err != nil {
		t.Fatal(err)
	}
	accs := slotProbeAccesses()
	tiles := rel.(TileIntrospector).Tiles()
	fallbacks, _, walks := perCellCounts(tiles, accs, cfg)
	if walks == 0 || walks == int64(rel.NumRows()) {
		t.Fatalf("%d walks of %d rows: want some tiles walked and some not", walks, rel.NumRows())
	}
	var st obs.ScanStats
	rel.(BatchScanner).ScanBatches(context.Background(), accs, 2, func(int, *vec.Batch) {}, &st)
	if g := st.Counts().DocWalks; g != walks {
		t.Errorf("%d document walks, want %d", g, walks)
	}
	if g := st.Counts().JSONBFallbacks; g != fallbacks {
		t.Errorf("%d JSONB fallbacks, want %d", g, fallbacks)
	}
}

// TestPlanCappedAccessAllocatesNothing: an access indexing a slot past
// the cap plans from the header path its scan computed once, so planning
// it on a tile, and asking whether the tile can be skipped, allocate
// nothing.
func TestPlanCappedAccessAllocatesNothing(t *testing.T) {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 128
	l, _ := NewLoader(KindTiles, cfg)
	rel, err := l.Load("tweets", slotProbeDocs(256), 1)
	if err != nil {
		t.Fatal(err)
	}
	accs := slotProbeAccesses()
	accs[20].NullRejecting = true
	sp := newScanPlan(accs, scanCfgOf(cfg))
	if !sp.headers[20].capped || sp.headers[20].enc != keypath.NewPath("entities", "hashtags").Encode() {
		t.Fatalf("slot 20 header path %+v, want the capped array", sp.headers[20])
	}
	tl := rel.(TileIntrospector).Tiles()[0]
	var plan accessPlan
	allocs := testing.AllocsPerRun(100, func() {
		plan = sp.plan(tl, 20)
		_ = sp.skippable(tl)
	})
	if allocs != 0 {
		t.Errorf("planning a capped access allocates %.1f times per tile", allocs)
	}
	if plan.serve != serveDoc {
		t.Errorf("capped slot planned %d, want the document", plan.serve)
	}
}

// TestPutScanScratchDropsWalkDocs: a tile walking shallower paths than
// the one before it leaves the earlier cursors past the walk's length, and
// returning the scratch to the pool must clear those too, since they
// alias documents the buffer pool may free; so do the ::JSON cells the
// walk wrote and the document parts its cells resolved.
func TestPutScanScratchDropsWalkDocs(t *testing.T) {
	accs := []Access{
		NewAccess(expr.TBigInt, "a", "b", "c"),
		NewAccess(expr.TBigInt, "a", "b", "d"),
		NewAccess(expr.TBigInt, "a", "e"),
		NewAccess(expr.TJSON, "x"),
	}
	doc, err := jsontext.Parse([]byte(`{"a":{"b":{"c":1,"d":2},"e":3},"x":[4]}`))
	if err != nil {
		t.Fatal(err)
	}
	d := jsonb.NewDoc(jsonb.Encode(doc))
	tr := sortWalkPaths(accs, func(int) bool { return true })
	s := getScanScratch(len(accs), nil)
	var cnt scanCounters
	var cursors []int
	for _, served := range []int{len(accs), 1} {
		plans := make([]accessPlan, len(accs))
		for ai := len(accs) - served; ai < len(accs); ai++ {
			plans[ai].serve = serveDoc
			s.cells[ai].Reset(accs[ai].Type, 1)
		}
		if !s.walk.activate(&tr, plans, accs, s.cells) {
			t.Fatalf("%d document-served accesses, no step active", served)
		}
		s.walk.row(docsTile{d}, 0, &cnt)
		cursors = append(cursors, len(s.walk.docs))
	}
	if cursors[1] >= cursors[0] {
		t.Fatalf("second tile walks with %d cursors, want fewer than the first's %d", cursors[1], cursors[0])
	}
	if c := s.walk.cells[0]; c.first.rows == nil {
		t.Fatalf("x::JSON walked without resolving its part")
	}
	if v := s.cells[3].Vector(); v.Boxed == nil || v.Boxed[0].Null {
		t.Fatalf("x::JSON walked into %+v, want its document", v)
	}
	putScanScratch(s)
	for i, c := range s.walk.docs[:cap(s.walk.docs)] {
		if !reflect.DeepEqual(c, jsonb.Doc{}) {
			t.Errorf("pooled walk cursor %d still holds a document", i)
		}
	}
	if v := s.cells[3].Vector(); v.Boxed != nil {
		t.Errorf("pooled writer still holds ::JSON cells %v", v.Boxed)
	}
	for i, c := range s.walk.cells[:cap(s.walk.cells)] {
		if c.first.rows != nil {
			t.Errorf("pooled walk cell %d still holds its resolved part", i)
		}
	}
}

// TestDocWalkSharedPrefixes pins the orders of paths the walk must get
// right, each case under every mask of document-served accesses: every
// cell, and the cast errors, equal a per-access lookup's
// (checkWalkedCells). The
// accesses are listed out of path order, and the sort must group them
// by prefix.
func TestDocWalkSharedPrefixes(t *testing.T) {
	cases := []struct {
		name     string
		docs     []string
		accesses []Access
	}{
		{"path prefix of the next", []string{`{"a":{"b":{"c":"x"},"d":1}}`, `{"a":{"b":5}}`, `{"a":{"d":"2"}}`, `{}`},
			[]Access{NewAccess(expr.TText, "a", "b", "c"), NewAccess(expr.TBigInt, "a", "b"),
				NewAccess(expr.TBigInt, "a", "d"), NewAccess(expr.TJSON, "a")}},
		{"key and slot siblings", []string{`{"m":{"t":"w","u":3}}`, `{"m":["p","q"]}`, `{"m":[{"t":"z"}]}`},
			[]Access{NewAccessPath(expr.TText, keypath.NewPath("m").Slot(1)), NewAccess(expr.TText, "m", "t"),
				NewAccessPath(expr.TText, keypath.NewPath("m").Slot(0).Child("t")), NewAccess(expr.TBigInt, "m", "u"),
				NewAccessPath(expr.TText, keypath.NewPath("m").Slot(0))}},
		{"missing step", []string{`{"x":{"v":1}}`, `{"x":{"y":{"z":2,"w":"s"},"v":"7"}}`, `{"y":3}`},
			[]Access{NewAccess(expr.TBigInt, "y"), NewAccess(expr.TText, "x", "y", "w"), NewAccess(expr.TBigInt, "x", "v"),
				NewAccess(expr.TBigInt, "x", "y", "z"), NewAccess(expr.TJSON, "x", "y"), NewAccess(expr.TJSON, "x")}},
		{"one path, several types", []string{`{"n":"12"}`, `{"n":1.5}`, `{"n":"abc"}`, `{"n":true}`, `{"n":{"k":1}}`, `{"n":"2020-01-02T03:04:05Z"}`},
			[]Access{NewAccess(expr.TText, "n"), NewAccess(expr.TBigInt, "n"), NewAccess(expr.TFloat, "n"),
				NewAccess(expr.TBool, "n"), NewAccess(expr.TTimestamp, "n"), NewAccess(expr.TJSON, "n"), NewAccess(expr.TBigInt, "n")}},
		{"not an object", []string{`{"o":null}`, `{"o":[{"k":1}]}`, `{"o":3}`, `{"o":"s"}`, `{"o":{"k":{"j":"v"}}}`},
			[]Access{NewAccess(expr.TText, "o", "k", "j"), NewAccessPath(expr.TBigInt, keypath.NewPath("o").Slot(0).Child("k")),
				NewAccess(expr.TJSON, "o", "k"), NewAccess(expr.TText, "o"), NewAccess(expr.TBigInt, "p", "k")}},
		// Dense arrays: a missing slot makes the later slots of its array
		// NULL without a lookup, and only those.
		{"dense arrays", []string{`{"a":[1]}`, `{"a":[]}`, `{"a":{}}`, `{"a":null}`, `{"a":[[7,8],{"x":"one"},2,[9]]}`,
			`{"a":[{"x":1},{"x":2},3,{"y":"z"}]}`, `{"a":[[1],[2]]}`, `{"a":[[[5]],[{"x":6}],[],[[0],"w"]]}`},
			[]Access{NewAccessPath(expr.TText, keypath.NewPath("a").Slot(3).Child("y")), NewAccessPath(expr.TText, keypath.NewPath("a").Slot(0)),
				NewAccessPath(expr.TBigInt, keypath.NewPath("a").Slot(3).Slot(0)), NewAccessPath(expr.TBigInt, keypath.NewPath("a").Slot(1).Child("x")),
				NewAccessPath(expr.TJSON, keypath.NewPath("a").Slot(3))}},
	}
	for _, tc := range cases {
		docs := make([]jsonb.Doc, len(tc.docs))
		for i, text := range tc.docs {
			v, err := jsontext.Parse([]byte(text))
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = jsonb.NewDoc(jsonb.Encode(v))
		}
		accs := tc.accesses
		tr := sortWalkPaths(accs, func(int) bool { return true })
		// Path order keeps the paths under each prefix together: two
		// paths share the fewest steps any path between them shares with
		// its predecessor, so the walk looks each prefix up once.
		for i := range tr.order {
			for j := i + 1; j < len(tr.order); j++ {
				p, q := accs[tr.order[i]].Path.Segs, accs[tr.order[j]].Path.Segs
				n := 0
				for n < len(p) && n < len(q) && p[n] == q[n] {
					n++
				}
				if m := slices.Min(tr.shared[i+1 : j+1]); m != n {
					t.Fatalf("%s: %s and %s share %d steps, the walk %d", tc.name, accs[tr.order[i]].Path.Display(), accs[tr.order[j]].Path.Display(), n, m)
				}
			}
		}
		var w docWalk // reused from mask to mask, as from tile to tile
		out := make([]vec.Buf, len(accs))
		for mask := 0; mask < 1<<len(accs); mask++ {
			plans := make([]accessPlan, len(accs))
			for ai := range accs {
				if mask>>ai&1 == 1 {
					plans[ai].serve = serveDoc
				}
			}
			if w.activate(&tr, plans, accs, out) != (mask != 0) {
				t.Fatalf("%s mask %b: activate reports %v", tc.name, mask, mask == 0)
			}
			if mask == 0 {
				continue
			}
			checkWalkedCells(t, fmt.Sprintf("%s mask %b", tc.name, mask), &w, out, plans, accs, docs)
		}
	}
}

// docsTile serves a walk its rows' documents: row i is docs[i]. A walk
// reads nothing else of a tile.
type docsTile []jsonb.Doc

func (d docsTile) NumRows() int                             { return len(d) }
func (d docsTile) MayContainPath(string) bool               { return true }
func (d docsTile) ColumnsForPath(string) []int              { return nil }
func (d docsTile) ColumnType(int) (keypath.ValueType, bool) { return keypath.TypeNull, false }
func (d docsTile) Column(int) *tile.ColumnInfo              { return nil }
func (d docsTile) Raw(i int) jsonb.Doc                      { return d[i] }

func (d docsTile) Members(string) ([][]byte, bool) {
	rows := make([][]byte, len(d))
	for i, doc := range d {
		rows[i] = doc.Bytes()
	}
	return rows, true
}

// checkWalkedCells walks docs, row i being docs[i], into writers reset
// for them, and checks every cell against an independent per-access
// read, which looks each path up from the document's root (docLookup)
// and writes what it reaches (docPut): a document-served access holds
// that read's value in a typed vector, boxed for ::JSON alone, and any
// other is still all NULL. The walk counts the cast errors the
// per-access read does.
func checkWalkedCells(t *testing.T, label string, w *docWalk, out []vec.Buf, plans []accessPlan, accs []Access, docs []jsonb.Doc) {
	t.Helper()
	for ai, a := range accs {
		out[ai].Reset(a.Type, len(docs))
	}
	var walked, looked scanCounters
	for i := range docs {
		w.row(docsTile(docs), i, &walked)
	}
	var ref vec.Buf
	for ai, a := range accs {
		v := out[ai].Vector()
		if (v.Boxed != nil) != (a.Type == expr.TJSON) {
			t.Fatalf("%s, %s::%s: boxed %v", label, a.Path.Display(), a.Type, v.Boxed != nil)
		}
		ref.Reset(a.Type, len(docs))
		for i, d := range docs {
			if cur, ok := docLookup(d, a.Path.Segs); ok && plans[ai].serve == serveDoc {
				docPut(&ref, i, cur, a.Type, &looked)
			}
		}
		want := ref.Vector()
		for i := range docs {
			if got, want := v.Value(i), want.Value(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, doc %d %s::%s: walk %v, lookup %v", label, i, a.Path.Display(), a.Type, got, want)
			}
		}
	}
	if walked.CastErrors != looked.CastErrors {
		t.Fatalf("%s: walk counted %d cast errors, the lookup %d", label, walked.CastErrors, looked.CastErrors)
	}
}

// FuzzDocWalk walks one random document with random accesses — leaf paths
// of the document, their prefixes, slots past the array's end, a key
// step on an array and an index step on an object, one path under
// several types — with a random subset of the accesses document-served,
// and compares every typed cell, and the cast errors, with a per-access
// lookup (checkWalkedCells). `go
// test` runs the seeds; `go test -run '^$' -fuzz FuzzDocWalk
// ./internal/storage` digs.
func FuzzDocWalk(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(0x5555_5555_5555_5555)>>seed)
	}
	f.Add(int64(9), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		r := rand.New(rand.NewSource(seed))
		docs := []jsonvalue.Value{jsongen.RandomObject(r, 4), jsongen.RandomObject(r, 4)}
		accs := fuzzWalkAccesses(r, docs[0])
		plans := make([]accessPlan, len(accs))
		for ai := range plans {
			if mask>>(ai%64)&1 == 1 {
				plans[ai].serve = serveDoc
			}
		}
		out := make([]vec.Buf, len(accs))
		tr := sortWalkPaths(accs, func(int) bool { return true })
		var w docWalk
		if !w.activate(&tr, plans, accs, out) {
			for ai := range plans {
				if plans[ai].serve == serveDoc {
					t.Fatalf("no step active, yet access %d is document-served", ai)
				}
			}
			return
		}
		encoded := make([]jsonb.Doc, len(docs))
		for i, doc := range docs {
			encoded[i] = jsonb.NewDoc(jsonb.Encode(doc))
		}
		checkWalkedCells(t, "fuzz", &w, out, plans, accs, encoded)
	})
}

// fuzzWalkAccesses draws up to 40 accesses over doc's paths: leaves,
// their prefixes, a slot or two past an array's end, the other step
// kind where a slot or key was, and each now and then under a second
// type.
func fuzzWalkAccesses(r *rand.Rand, doc jsonvalue.Value) []Access {
	types := []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TBool, expr.TTimestamp, expr.TJSON}
	var paths []keypath.Path
	keypath.Collect(doc, 16, func(p keypath.Path, _ keypath.ValueType, _ jsonvalue.Value) {
		paths = append(paths, p)
	})
	var accs []Access
	add := func(p keypath.Path) {
		if len(accs) < 40 {
			accs = append(accs, NewAccessPath(types[r.Intn(len(types))], p))
		}
	}
	add(keypath.NewPath(jsongen.RandomKey(r)))
	for _, p := range paths {
		if r.Intn(3) == 0 {
			continue
		}
		add(p)
		if r.Intn(3) == 0 {
			add(p) // the same path again, most likely under another type
		}
		if cut := r.Intn(len(p.Segs) + 1); cut < len(p.Segs) {
			add(keypath.Path{Segs: p.Segs[:cut]})
		}
		for i, seg := range p.Segs {
			if r.Intn(4) != 0 {
				continue
			}
			q := keypath.Path{Segs: append([]keypath.Segment(nil), p.Segs...)}
			if seg.IsIndex {
				if r.Intn(2) == 0 {
					q.Segs[i] = keypath.Segment{Index: seg.Index + 1 + r.Intn(12), IsIndex: true}
				} else {
					q.Segs[i] = keypath.Segment{Key: "k"}
				}
			} else {
				q.Segs[i] = keypath.Segment{Index: r.Intn(2), IsIndex: true}
			}
			add(q)
		}
	}
	return accs
}

// BenchmarkSlotProbeScan scans tweets for 24 hashtag slots and the id,
// and keeps the rows where any slot is one hashtag: the document walk
// serves the slots past the cap, and those no tile extracted, in one
// descent per row, and the OR of 24 text equalities runs over every
// batch, as the engine's filter would.
func BenchmarkSlotProbeScan(b *testing.B) {
	cfg := DefaultLoaderConfig()
	l, _ := NewLoader(KindTiles, cfg)
	rel, err := l.Load("tweets", slotProbeDocs(16384), 2)
	if err != nil {
		b.Fatal(err)
	}
	accs := slotProbeAccesses()
	var anySlot expr.Expr
	for j := 0; j < 24; j++ {
		eq := expr.NewCmp(expr.EQ, expr.NewCol(j, expr.TText), expr.NewConst(expr.TextValue("tag3")))
		if anySlot == nil {
			anySlot = eq
		} else {
			anySlot = expr.NewOr(anySlot, eq)
		}
	}
	pred, ok := vec.Compile(anySlot, len(accs))
	if !ok {
		b.Fatal("the hashtag predicate does not compile")
	}
	ps := pred.NewScratch()
	bs := rel.(BatchScanner)
	scan := func() (matched int) {
		bs.ScanBatches(context.Background(), accs, 1, func(_ int, bt *vec.Batch) { matched += len(pred.Sel(bt, ps)) }, nil)
		return matched
	}
	if scan() == 0 {
		b.Fatal("no tweet carries the hashtag")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rel.NumRows()), "ns/row")
}
