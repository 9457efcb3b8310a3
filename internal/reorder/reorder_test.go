package reorder

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/tile"
)

// parse parses one document into a tape.
func parse(src string) *jsontape.Doc {
	d := new(jsontape.Doc)
	if err := jsontape.Parse([]byte(src), d); err != nil {
		panic(err)
	}
	return d
}

// mkDocs builds n docs of the given structure id. Structures are
// disjoint (no shared key paths), like Figure 4's patterns.
func mkDocs(n, structure int) []*jsontape.Doc {
	out := make([]*jsontape.Doc, n)
	for i := 0; i < n; i++ {
		out[i] = parse(fmt.Sprintf(`{"s%d_a":%d, "s%d_b":"v%d", "s%d_c":%d}`,
			structure, i, structure, i, structure, i%7))
	}
	return out
}

func interleave(groups ...[]*jsontape.Doc) []*jsontape.Doc {
	var out []*jsontape.Doc
	for i := 0; ; i++ {
		appended := false
		for _, g := range groups {
			if i < len(g) {
				out = append(out, g[i])
				appended = true
			}
		}
		if !appended {
			return out
		}
	}
}

func cfg(tileSize, partSize int) tile.Config {
	c := tile.DefaultConfig()
	c.TileSize = tileSize
	c.PartitionSize = partSize
	c.DetectDates = false
	return c
}

// extractionQuality builds tiles from docs and returns the fraction of
// (doc, own-structure-path) pairs served by a materialized column.
func extractionQuality(t *testing.T, docs []*jsontape.Doc, c tile.Config) float64 {
	t.Helper()
	b := tile.NewBuilder(c, nil)
	totalCols := 0
	tiles := 0
	for lo := 0; lo < len(docs); lo += c.TileSize {
		hi := lo + c.TileSize
		if hi > len(docs) {
			hi = len(docs)
		}
		tl := b.BuildTape(docs[lo:hi])
		totalCols += len(tl.Columns())
		tiles++
	}
	return float64(totalCols) / float64(tiles)
}

func TestFigure4Scenario(t *testing.T) {
	// 4 disjoint structures interleaved round-robin: before reordering
	// each structure is 25% per tile — below the 60% threshold, so no
	// tile can extract anything. After reordering, tiles are pure.
	const tileSize = 40
	groups := [][]*jsontape.Doc{
		mkDocs(40, 0), mkDocs(40, 1), mkDocs(40, 2), mkDocs(40, 3),
	}
	docs := interleave(groups...)
	c := cfg(tileSize, 4)

	before := extractionQuality(t, append([]*jsontape.Doc(nil), docs...), c)
	if before != 0 {
		t.Fatalf("before reordering, %f columns/tile extracted; scenario broken", before)
	}

	res := PartitionTapes(docs, c, nil)
	if res.SurvivingItemsets == 0 {
		t.Fatal("no itemsets survived")
	}
	if res.Matched != len(docs) {
		t.Errorf("matched %d of %d", res.Matched, len(docs))
	}

	after := extractionQuality(t, docs, c)
	if after < 3 { // each structure has 3 key paths
		t.Errorf("after reordering only %.1f columns/tile", after)
	}
}

func TestReorderingClustersStructures(t *testing.T) {
	const tileSize = 10
	docs := interleave(mkDocs(20, 0), mkDocs(20, 1))
	c := cfg(tileSize, 4)
	PartitionTapes(docs, c, nil)
	// Every tile must now be homogeneous: all docs in a tile share
	// their first key's structure prefix.
	firstKey := func(d *jsontape.Doc) string { return d.Root().Materialize().Members()[0].Key }
	for lo := 0; lo < len(docs); lo += tileSize {
		first := firstKey(docs[lo])
		for i := lo; i < lo+tileSize && i < len(docs); i++ {
			if firstKey(docs[i]) != first {
				t.Fatalf("tile starting at %d mixes structures (%s vs %s)",
					lo, first, firstKey(docs[i]))
			}
		}
	}
}

func TestNoReorderingNeeded(t *testing.T) {
	// Already-clustered docs must not lose extraction quality.
	docs := append(mkDocs(40, 0), mkDocs(40, 1)...)
	c := cfg(40, 2)
	before := extractionQuality(t, append([]*jsontape.Doc(nil), docs...), c)
	PartitionTapes(docs, c, nil)
	after := extractionQuality(t, docs, c)
	if after < before {
		t.Errorf("reordering degraded quality: %.1f -> %.1f", before, after)
	}
}

func TestPermutationPreservesMultiset(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var docs []*jsontape.Doc
	for i := 0; i < 100; i++ {
		docs = append(docs, mkDocs(1, r.Intn(5))...)
	}
	idSet := map[string]int{}
	for _, d := range docs {
		idSet[string(d.Data)]++
	}
	PartitionTapes(docs, cfg(10, 8), nil)
	after := map[string]int{}
	for _, d := range docs {
		after[string(d.Data)]++
	}
	if len(idSet) != len(after) {
		t.Fatal("document multiset changed")
	}
	for k, v := range idSet {
		if after[k] != v {
			t.Fatalf("document %s count changed %d -> %d", k, v, after[k])
		}
	}
}

func TestEdgeCases(t *testing.T) {
	c := cfg(10, 8)
	// Empty.
	if res := PartitionTapes(nil, c, nil); res.Moved != 0 {
		t.Error("empty partition moved tuples")
	}
	// Single tile: no redistribution possible.
	docs := mkDocs(5, 0)
	if res := PartitionTapes(docs, c, nil); res.Moved != 0 {
		t.Error("single-tile partition moved tuples")
	}
	// Partition size 1 disables reordering.
	docs2 := interleave(mkDocs(20, 0), mkDocs(20, 1))
	c1 := cfg(10, 1)
	if res := PartitionTapes(docs2, c1, nil); res.Moved != 0 {
		t.Error("partitionSize=1 still reordered")
	}
}

func TestHackerNewsFigure3(t *testing.T) {
	// Figure 3: news items of different document types arriving
	// interleaved (story, poll, pollop, comment).
	var docs []*jsontape.Doc
	for i := 0; i < 40; i++ {
		docs = append(docs,
			parse(fmt.Sprintf(`{"id":%d,"date":"1/11","type":"story","score":3,"desc":2,"title":"t","url":"u"}`, i*4)),
			parse(fmt.Sprintf(`{"id":%d,"date":"1/12","type":"poll","score":5,"desc":2,"title":"t"}`, i*4+1)),
			parse(fmt.Sprintf(`{"id":%d,"date":"1/13","type":"pollop","score":6,"poll":2,"title":"t"}`, i*4+2)),
			parse(fmt.Sprintf(`{"id":%d,"date":"1/14","type":"comment","parent":4,"text":"x"}`, i*4+3)),
		)
	}
	c := cfg(40, 4)
	res := PartitionTapes(docs, c, nil)
	if res.SurvivingItemsets == 0 {
		t.Fatal("no itemsets survived on news items")
	}
	after := extractionQuality(t, docs, c)
	// Comments have 6 paths, stories 7 — after clustering each tile
	// should extract roughly its type's full schema.
	if after < 5 {
		t.Errorf("columns/tile = %.1f after reordering", after)
	}
}

func TestMetricsReorderTime(t *testing.T) {
	var m tile.Metrics
	docs := interleave(mkDocs(20, 0), mkDocs(20, 1))
	PartitionTapes(docs, cfg(10, 4), &m)
	if m.ReorderNanos.Load() <= 0 {
		t.Error("reorder time not recorded")
	}
}

func TestSharedKeyPathsAcrossStructures(t *testing.T) {
	// Structures share "id" and "type" but differ otherwise (the
	// realistic combined-log case). Reordering must still cluster, and
	// the shared paths stay extractable everywhere.
	mk := func(i, s int) *jsontape.Doc {
		if s == 0 {
			return parse(fmt.Sprintf(`{"id":%d,"type":"a","payload":%d}`, i, i))
		}
		return parse(fmt.Sprintf(`{"id":%d,"type":"b","msg":"m%d","level":%d}`, i, i, i%3))
	}
	var docs []*jsontape.Doc
	for i := 0; i < 80; i++ {
		docs = append(docs, mk(i, i%2))
	}
	c := cfg(20, 4)
	PartitionTapes(docs, c, nil)
	b := tile.NewBuilder(c, nil)
	for lo := 0; lo < len(docs); lo += c.TileSize {
		tl := b.BuildTape(docs[lo : lo+c.TileSize])
		if tl.FindColumn("id", keypath.TypeBigInt) < 0 {
			t.Errorf("tile at %d lost shared path id", lo)
		}
	}
}
