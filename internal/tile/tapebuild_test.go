package tile

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
)

// tapeCorpus is a mixed corpus exercising every identity-relevant
// feature: frequent paths above and below the threshold, type
// outliers, nulls, date-like strings, duplicate keys, escaped keys,
// arrays past the slot cap, and empty containers.
func tapeCorpus(t *testing.T) (docs []jsonvalue.Value, tapes []*jsontape.Doc) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"id":%d,"name":"user-%d","score":%d.5,"active":%v,"when":"2021-0%d-1%d","tags":[%d,%d,"x"]}`,
			i, i%7, i, i%2 == 0, i%9+1, i%10, i, i+1))
	}
	// Type outliers: "id" as string, "score" as int, nulls.
	lines = append(lines,
		`{"id":"oops","name":null,"score":7,"active":1,"when":"not a date"}`,
		`{"id":99,"extra":{"deep":{"leaf":true}},"empty":{},"ar":[]}`,
		`{"dup":1,"dup":"two","a.b":3,"c\\d":4,"":5}`,
		`{"big":[0,1,2,3,4,5,6,7,8,9,10,11],"id":100}`,
	)
	for _, ln := range lines {
		v, err := jsontext.Parse([]byte(ln))
		if err != nil {
			t.Fatalf("parse %q: %v", ln, err)
		}
		docs = append(docs, v)
		d := &jsontape.Doc{}
		if err := jsontape.Parse([]byte(ln), d); err != nil {
			t.Fatalf("tape parse %q: %v", ln, err)
		}
		tapes = append(tapes, d)
	}
	return docs, tapes
}

// TestBuildTapeMatchesBuild locks the tape build to the tree build:
// identical header, columns (bytes), statistics, and raw storage.
func TestBuildTapeMatchesBuild(t *testing.T) {
	docs, tapes := tapeCorpus(t)
	cfg := DefaultConfig()
	cfg.TileSize = len(docs)
	cfg.MaxArraySlots = 2

	var mTree, mTape Metrics
	tree := NewBuilder(cfg, &mTree).Build(docs)
	tape := NewBuilder(cfg, &mTape).BuildTape(tapes)

	if tree.NumRows() != tape.NumRows() {
		t.Fatalf("numRows: tree %d tape %d", tree.NumRows(), tape.NumRows())
	}
	tc, pc := tree.Columns(), tape.Columns()
	if len(tc) != len(pc) {
		t.Fatalf("column count: tree %d tape %d", len(tc), len(pc))
	}
	for i := range tc {
		a, b := tc[i], pc[i]
		if a.Path != b.Path || a.MinedType != b.MinedType || a.StorageType != b.StorageType ||
			a.HasTypeOutliers != b.HasTypeOutliers {
			t.Errorf("column %d header differs: tree %+v tape %+v", i, a, b)
		}
		if !bytes.Equal(a.Col.Serialize(), b.Col.Serialize()) {
			t.Errorf("column %d (%s) bytes differ", i, a.Path)
		}
	}
	if !reflect.DeepEqual(tree.PathFrequencies(), tape.PathFrequencies()) {
		t.Errorf("pathFreq differs:\n tree %v\n tape %v", tree.PathFrequencies(), tape.PathFrequencies())
	}
	for p, s := range tree.Sketches() {
		o := tape.Sketch(p)
		if o == nil || o.Estimate() != s.Estimate() {
			t.Errorf("sketch %q differs", p)
		}
	}
	for p, h := range tree.Histograms() {
		o := tape.Histogram(p)
		if o == nil || o.Total() != h.Total() || o.Min() != h.Min() || o.Max() != h.Max() {
			t.Errorf("histogram %q differs", p)
		}
	}
	if !reflect.DeepEqual(tree.SeenFilter().Bits(), tape.SeenFilter().Bits()) {
		t.Errorf("seen-paths bloom filter differs")
	}
	for i := 0; i < tree.NumRows(); i++ {
		if !bytes.Equal(tree.RawBytes(i), tape.RawBytes(i)) {
			t.Errorf("raw doc %d differs", i)
		}
	}
	if mTape.DocsTape.Load() != int64(len(tapes)) || mTape.DocsTree.Load() != 0 {
		t.Errorf("tape metrics: DocsTape=%d DocsTree=%d", mTape.DocsTape.Load(), mTape.DocsTree.Load())
	}
	if mTree.DocsTree.Load() != int64(len(docs)) || mTree.DocsTape.Load() != 0 {
		t.Errorf("tree metrics: DocsTape=%d DocsTree=%d", mTree.DocsTape.Load(), mTree.DocsTree.Load())
	}
	if mTape.SubtreesSkipped.Load() == 0 {
		t.Errorf("expected skipped subtrees with MaxArraySlots=2")
	}
}

// TestCollectTapeTransactionsMatchesTree checks the shared-dictionary
// transactions agree id for id.
func TestCollectTapeTransactionsMatchesTree(t *testing.T) {
	docs, tapes := tapeCorpus(t)
	dictTree, dictTape := keypath.NewDict(), keypath.NewDict()
	txTree := CollectTransactions(docs, 2, dictTree)
	txTape := CollectTapeTransactions(tapes, 2, dictTape)
	if dictTree.Len() != dictTape.Len() {
		t.Fatalf("dict length: tree %d tape %d", dictTree.Len(), dictTape.Len())
	}
	for id := int32(0); id < int32(dictTree.Len()); id++ {
		if dictTree.Item(id) != dictTape.Item(id) {
			t.Fatalf("dict item %d: tree %+v tape %+v", id, dictTree.Item(id), dictTape.Item(id))
		}
	}
	if !reflect.DeepEqual(txTree, txTape) {
		t.Fatalf("transactions differ")
	}
}

// TestBuildCountsWorkOncePerDistinctDocument: a tile build counts
// items instead of mining, so a tile of one repeated three-path
// document, however many copies it holds, costs no FP-tree node and no
// subset test — and still extracts all three paths. Each tape is
// walked once.
func TestBuildCountsWorkOncePerDistinctDocument(t *testing.T) {
	const doc = `{"a":1,"b":"x","c":true}`
	for _, n := range []int{1, 1000} {
		docs := make([]jsonvalue.Value, n)
		tapes := make([]*jsontape.Doc, n)
		for i := range docs {
			docs[i], _ = jsontext.Parse([]byte(doc))
			tapes[i] = &jsontape.Doc{}
			if err := jsontape.Parse([]byte(doc), tapes[i]); err != nil {
				t.Fatal(err)
			}
		}
		var mTree, mTape Metrics
		tiles := map[string]*Tile{
			"Build":     NewBuilder(DefaultConfig(), &mTree).Build(docs),
			"BuildTape": NewBuilder(DefaultConfig(), &mTape).BuildTape(tapes),
		}
		for name, m := range map[string]*Metrics{"Build": &mTree, "BuildTape": &mTape} {
			if got := m.Snapshot(); got.FPNodes != 0 || got.SubsetTests != 0 || len(tiles[name].Columns()) != 3 {
				t.Errorf("%s of %d copies: FPNodes=%d SubsetTests=%d, %d columns; want 0, 0, 3",
					name, n, got.FPNodes, got.SubsetTests, len(tiles[name].Columns()))
			}
		}
		if got := mTape.TapeWalks.Load(); got != int64(n) {
			t.Errorf("BuildTape of %d copies walked %d documents", n, got)
		}
	}
}

// TestWalkTransactionsAreSets: a walk's transactions hold each
// document's items once, numbered as a fresh dictionary numbers them.
func TestWalkTransactionsAreSets(t *testing.T) {
	_, tapes := tapeCorpus(t)
	for _, src := range []string{`{"a":1,"a":2,"b":[1,2],"c":{"a":3}}`, `{"b":[3],"a":[1,1,1],"a":null}`} {
		d := &jsontape.Doc{}
		if err := jsontape.Parse([]byte(src), d); err != nil {
			t.Fatal(err)
		}
		tapes = append(tapes, d)
	}
	want := CollectTapeTransactions(tapes, 2, keypath.NewDict())
	for i, tx := range WalkTapes(tapes, 2, nil).Transactions() {
		got := slices.Clone(tx)
		slices.Sort(got)
		if !slices.Equal(got, want[i]) {
			t.Errorf("document %d: walk transaction %v, want the set %v", i, tx, want[i])
		}
	}
}

// TestRegroupMatchesFreshWalk: regrouping tiles' walks by a permutation
// yields the walk of the permuted documents — items numbered in the
// same order, the same leaves — and so the same tile.
func TestRegroupMatchesFreshWalk(t *testing.T) {
	_, tapes := tapeCorpus(t)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tileSize := 1 + r.Intn(len(tapes))
		var walks []*Walk
		for lo := 0; lo < len(tapes); lo += tileSize {
			walks = append(walks, WalkTapes(tapes[lo:min(lo+tileSize, len(tapes))], 2, nil))
		}
		positions := r.Perm(len(tapes))[:1+r.Intn(len(tapes))]
		permuted := make([]*jsontape.Doc, len(positions))
		for j, p := range positions {
			permuted[j] = tapes[p]
		}
		got, want := Regroup(walks, tileSize, positions), WalkTapes(permuted, 2, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (tile %d, %d positions): regrouped walk differs from a fresh walk", trial, tileSize, len(positions))
		}
		cfg := DefaultConfig()
		cfg.MaxArraySlots = 2
		a, b := NewBuilder(cfg, nil).BuildWalk(permuted, got), NewBuilder(cfg, nil).BuildTape(permuted)
		if !reflect.DeepEqual(a.Columns(), b.Columns()) || !reflect.DeepEqual(a.PathFrequencies(), b.PathFrequencies()) {
			t.Fatalf("trial %d: the tile built from the regrouped walk differs", trial)
		}
	}
}
