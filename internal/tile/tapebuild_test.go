package tile

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dates"
	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/sched"
)

// tapeCorpus is a mixed corpus exercising every identity-relevant
// feature: frequent paths above and below the threshold, type
// outliers, nulls, date-like strings, duplicate keys (also of
// extracted paths), escaped keys, arrays past the slot cap, empty
// containers, and a container at an extracted path.
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
		`{"id":101,"name":"first","id":102,"name":7}`,
		`{"big":[0,1,2,3,4,5,6,7,8,9,10,11],"id":100}`,
		`{"id":103,"tags":[{"v":1}]}`,
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

// oracle is what the paper's extraction makes of a tile of documents,
// worked out from their jsontext trees alone: the dictionary items in
// order of first occurrence, each document's set of item ids, the
// extracted items (frequent and extractable, in dictionary order),
// each document's value per path (its last occurrence), the non-null
// leaves per path, every seen path with its prefixes (true where some
// document holds a container there), and each document's JSONB.
type oracle struct {
	items     []keypath.Item
	txs       [][]int32
	extracted []keypath.Item
	last      []map[string]jsonvalue.Value
	freq      map[string]int
	seen      map[string]bool
	raw       [][]byte
}

func treeOracle(docs []jsonvalue.Value, cfg Config) oracle {
	o := oracle{freq: map[string]int{}, seen: map[string]bool{}}
	dict := keypath.NewDict()
	var support []int
	for _, d := range docs {
		var tx []int32
		last := map[string]jsonvalue.Value{}
		keypath.Collect(d, cfg.MaxArraySlots, func(p keypath.Path, vt keypath.ValueType, v jsonvalue.Value) {
			id := dict.Add(p.Encode(), vt)
			if int(id) == len(support) {
				support = append(support, 0)
			}
			if !slices.Contains(tx, id) {
				tx = append(tx, id)
				support[id]++
			}
			last[p.Encode()] = v
			if vt != keypath.TypeNull {
				o.freq[p.Encode()]++
			}
			for n := 1; n <= len(p.Segs); n++ {
				enc := keypath.Path{Segs: p.Segs[:n]}.Encode()
				o.seen[enc] = o.seen[enc] || n < len(p.Segs)
			}
		})
		slices.Sort(tx)
		o.txs = append(o.txs, tx)
		o.last = append(o.last, last)
		o.raw = append(o.raw, jsonb.Encode(d))
	}
	o.items = dict.Items()
	for id, it := range o.items {
		if support[id] >= cfg.MinSupport(len(docs)) && isExtractableType(it.Type) {
			o.extracted = append(o.extracted, it)
		}
	}
	return o
}

// checkAgainstOracle compares a tile of docs with the oracle: the
// extracted columns and every cell, type outliers, path frequencies,
// seen-path membership and the raw bytes.
func checkAgainstOracle(t *testing.T, tl *Tile, o oracle) {
	t.Helper()
	if tl.NumRows() != len(o.raw) {
		t.Fatalf("%d rows, want %d", tl.NumRows(), len(o.raw))
	}
	cols := tl.Columns()
	if len(cols) != len(o.extracted) {
		t.Fatalf("%d columns, want %d: %v", len(cols), len(o.extracted), o.extracted)
	}
	for ci, c := range cols {
		it := o.extracted[ci]
		if c.Path != it.Path || c.MinedType != it.Type {
			t.Fatalf("column %d is %s %v, want %s %v", ci, c.Path, c.MinedType, it.Path, it.Type)
		}
		if c.StorageType != c.MinedType && (c.MinedType != keypath.TypeString || c.StorageType != keypath.TypeTimestamp) {
			t.Errorf("column %s: storage type %v for mined %v", c.Path, c.StorageType, c.MinedType)
		}
		outliers := o.seen[it.Path] // a container at the path
		for i, last := range o.last {
			v, ok := last[it.Path]
			vt := keypath.TypeOf(v)
			if ok && vt != it.Type && vt != keypath.TypeNull {
				outliers = true
			}
			var want any // nil: NULL
			if ok && vt == it.Type {
				switch c.StorageType {
				case keypath.TypeBigInt:
					want = v.IntVal()
				case keypath.TypeDouble:
					want = v.FloatVal()
				case keypath.TypeBool:
					want = v.BoolVal()
				case keypath.TypeString:
					want = v.StringVal()
				case keypath.TypeTimestamp:
					if ts, ok := dates.Parse(v.StringVal()); ok {
						want = ts
					} else {
						outliers = true
					}
				}
			}
			var got any
			if !c.Col.IsNull(i) {
				switch c.StorageType {
				case keypath.TypeBigInt, keypath.TypeTimestamp:
					got = c.Col.Int(i)
				case keypath.TypeDouble:
					got = c.Col.Float(i)
				case keypath.TypeBool:
					got = c.Col.Bool(i)
				case keypath.TypeString:
					got = string(c.Col.StrAt(i))
				}
			}
			if got != want {
				t.Errorf("column %s row %d: %v, want %v", c.Path, i, got, want)
			}
		}
		if c.HasTypeOutliers != outliers {
			t.Errorf("column %s: HasTypeOutliers %v, want %v", c.Path, c.HasTypeOutliers, outliers)
		}
	}
	if !reflect.DeepEqual(tl.PathFrequencies(), o.freq) {
		t.Errorf("path frequencies %v, want %v", tl.PathFrequencies(), o.freq)
	}
	for p := range o.seen {
		if !tl.MayContainPath(p) {
			t.Errorf("seen path %q reported absent", p)
		}
	}
	for i, raw := range o.raw {
		if !bytes.Equal(tl.RawBytes(i), raw) {
			t.Errorf("raw doc %d differs", i)
		}
	}
}

// TestBuildTapeMatchesBuild checks the tape build against the oracle:
// columns cell by cell, statistics, header and raw storage.
func TestBuildTapeMatchesBuild(t *testing.T) {
	docs, tapes := tapeCorpus(t)
	cfg := DefaultConfig()
	cfg.TileSize = len(docs)
	cfg.MaxArraySlots = 2

	var m Metrics
	checkAgainstOracle(t, NewBuilder(cfg, &m).BuildTape(tapes), treeOracle(docs, cfg))
	if m.DocsTape.Load() != int64(len(tapes)) {
		t.Errorf("DocsTape=%d, want %d", m.DocsTape.Load(), len(tapes))
	}
	if m.SubtreesSkipped.Load() == 0 {
		t.Errorf("expected skipped subtrees with MaxArraySlots=2")
	}
}

// TestCollectTapeTransactionsMatchesTree checks the shared-dictionary
// transactions against the oracle, id for id.
func TestCollectTapeTransactionsMatchesTree(t *testing.T) {
	docs, tapes := tapeCorpus(t)
	cfg := DefaultConfig()
	cfg.MaxArraySlots = 2
	o := treeOracle(docs, cfg)
	dict := keypath.NewDict()
	txs := CollectTapeTransactions(tapes, 2, dict)
	if !slices.Equal(dict.Items(), o.items) {
		t.Fatalf("dictionary %v, want %v", dict.Items(), o.items)
	}
	if !reflect.DeepEqual(txs, o.txs) {
		t.Fatalf("transactions %v, want %v", txs, o.txs)
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
		tapes := make([]*jsontape.Doc, n)
		for i := range tapes {
			tapes[i] = &jsontape.Doc{}
			if err := jsontape.Parse([]byte(doc), tapes[i]); err != nil {
				t.Fatal(err)
			}
		}
		var m Metrics
		tl := NewBuilder(DefaultConfig(), &m).BuildTape(tapes)
		if got := m.Snapshot(); got.FPNodes != 0 || got.SubsetTests != 0 || len(tl.Columns()) != 3 {
			t.Errorf("%d copies: FPNodes=%d SubsetTests=%d, %d columns; want 0, 0, 3",
				n, got.FPNodes, got.SubsetTests, len(tl.Columns()))
		}
		if got := m.TapeWalks.Load(); got != int64(n) {
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
		a := NewBuilder(cfg, nil).Build([][]*jsontape.Doc{permuted}, func(int) *Walk { return got }, 1)[0]
		b := NewBuilder(cfg, nil).BuildTape(permuted)
		if !reflect.DeepEqual(a.Columns(), b.Columns()) || !reflect.DeepEqual(a.PathFrequencies(), b.PathFrequencies()) {
			t.Fatalf("trial %d: the tile built from the regrouped walk differs", trial)
		}
	}
}

// skewedPartition is a reordered partition's two tiles of unequal cost,
// as a stream of tweets and delete records reorders into: rich
// documents with many paths, then short ones with few.
func skewedPartition(t *testing.T, rows int) [][]*jsontape.Doc {
	parts := make([][]*jsontape.Doc, 2)
	for i := 0; i < rows; i++ {
		rich := fmt.Sprintf(`{"created_at":"Mon Jun 0%d 13:45:09 +0000 2020","id":%d,"text":"tweet %d says %s",`+
			`"user":{"id":%d,"name":"user-%d","followers_count":%d,"verified":%v},"retweet_count":%d,"lang":"en",`+
			`"entities":{"hashtags":[{"text":"h%d"}],"urls":[]},"geo":null,"score":%d.25}`,
			i%9+1, i, i, bytes.Repeat([]byte("x"), i%40), i%97, i%97, i*7, i%3 == 0, i%13, i%5, i)
		short := fmt.Sprintf(`{"delete":{"status":{"id":%d,"user_id":%d}}}`, i, i%97)
		for k, src := range []string{rich, short} {
			d := new(jsontape.Doc)
			if err := jsontape.Parse([]byte(src), d); err != nil {
				t.Fatal(err)
			}
			parts[k] = append(parts[k], d)
		}
	}
	return parts
}

// TestBuildCutsBelowTiles: at two workers, a build of a skewed partition
// dispatches its extraction and JSONB encoding in morsels smaller than a
// tile — a column, or a run of documents — so the heavy tile does not
// leave the second worker idle, and each tile is what a build of it
// alone makes.
func TestBuildCutsBelowTiles(t *testing.T) {
	parts := skewedPartition(t, DefaultConfig().TileSize)
	var stages []int
	parallelFor = func(ctx context.Context, n, workers int, fn func(worker, i int)) int {
		stages = append(stages, n)
		return sched.For(ctx, n, workers, fn)
	}
	t.Cleanup(func() { parallelFor = sched.For })
	tiles := NewBuilder(DefaultConfig(), nil).Build(parts, func(int) *Walk { return nil }, 2)
	if len(stages) != 2 || stages[0] != len(parts) {
		t.Fatalf("stages dispatched %v morsels, want one per tile then the extraction's", stages)
	}
	want := 0
	for k, tl := range tiles {
		want += len(tl.Columns()) + (tl.NumRows()+docRun-1)/docRun
		alone := NewBuilder(DefaultConfig(), nil).BuildTape(parts[k])
		if !reflect.DeepEqual(tl.Columns(), alone.Columns()) || !reflect.DeepEqual(tl.raw, alone.raw) ||
			!reflect.DeepEqual(tl.PathFrequencies(), alone.PathFrequencies()) {
			t.Errorf("tile %d differs from a build of it alone", k)
		}
	}
	if stages[1] != want || want < 4*len(tiles) {
		t.Errorf("extraction dispatched %d morsels for %d tiles, want %d: one per column and per %d documents",
			stages[1], len(tiles), want, docRun)
	}
}
