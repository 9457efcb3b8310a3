package jsontiles

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/jsontape"
	"repro/internal/segment"
	"repro/internal/storage"
	"repro/internal/tile"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// flushBatch is the append batch the end-to-end benchmark flushes.
const flushBatch = 2048

type flushCorpus struct {
	name  string
	lines [][]byte
}

// flushCorpora returns one flushBatch-document batch per generator,
// fixed seed: twitter's tweets and deletes; the last 2048 TPC-H
// documents, lineitems, whose 16 paths make the budget cut mining at
// 4-item sets (six of the nine batches of the benchmark's TPC-H load
// are lineitems only); and all five Yelp document types.
func flushCorpora() []flushCorpus {
	tw := twitter.Generate(twitter.Config{Tweets: flushBatch, DeleteRatio: 0.4, Seed: 1})
	tp, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1})
	u := flushBatch/14 + 1
	yl, _ := yelp.Generate(yelp.Config{Businesses: u, Users: 2 * u, Reviews: 8 * u, Tips: 2 * u, Checkins: u, Seed: 1})
	return []flushCorpus{
		{"twitter", tw[:flushBatch]},
		{"tpch", tp[len(tp)-flushBatch:]},
		{"yelp", yl[:flushBatch]},
	}
}

// flushOnce opens a table on a fresh in-memory store, inserts lines,
// flushes them into one segment and returns the table's load metrics.
func flushOnce(tb testing.TB, lines [][]byte) tile.MetricsSnapshot {
	tbl, err := OpenStore("flush", NewMemStore(), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	defer tbl.Close()
	for _, l := range lines {
		if err := tbl.Insert(l); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		tb.Fatal(err)
	}
	return tbl.metrics.Snapshot()
}

// BenchmarkFlush pushes one append batch of each generator through
// OpenStore and Insert…Flush: throughput, allocations, and the
// deterministic work counts per document, which compare across hosts
// where the timings do not — FP-tree nodes and subset tests of mining
// and reordering, and tape walks, which must be one per document.
func BenchmarkFlush(b *testing.B) {
	for _, c := range flushCorpora() {
		b.Run(c.name, func(b *testing.B) {
			var bytes int64
			for _, l := range c.lines {
				bytes += int64(len(l))
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			var m tile.MetricsSnapshot
			for i := 0; i < b.N; i++ {
				m = flushOnce(b, c.lines)
			}
			docs := float64(len(c.lines))
			b.ReportMetric(float64(m.FPNodes)/docs, "fpnodes/doc")
			b.ReportMetric(float64(m.SubsetTests)/docs, "subsettests/doc")
			b.ReportMetric(float64(m.TapeWalks)/docs, "walks/doc")
		})
	}
}

// TestFlushSegmentBytes pins the exact segment a flush of each corpus
// writes, at one, two, three and eight workers: parsing, reordering,
// mining, tile building and block encoding may move between goroutines
// or change how often they run, but never what they produce.
func TestFlushSegmentBytes(t *testing.T) {
	want := map[string]struct {
		size int
		sum  string
	}{
		"twitter": {310219, "3630b324911f9b7a4c345769d7890d9627466a6e342bdd83b38c269fadd00bd5"},
		"tpch":    {284189, "ed36d159e3318b6776f9d7568b45db5e035c83a62bed984ce3cd7d61972190f1"},
		"yelp":    {170423, "4e080370d931bc8de4983d25650b6f26ed7d730bf18abce1a90a9efa222b4c33"},
	}
	for _, c := range flushCorpora() {
		for _, workers := range []int{1, 2, 3, 8} {
			store := blockstore.NewMem()
			opts := DefaultOptions()
			opts.Workers = workers
			tbl, err := OpenStore("flush", store, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range c.lines {
				if err := tbl.Insert(l); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
			seg, err := blockstore.ReadAll(store, "seg-000000.seg")
			if err != nil {
				t.Fatal(err)
			}
			tbl.Close()
			sum := sha256.Sum256(seg)
			if w := want[c.name]; len(seg) != w.size || hex.EncodeToString(sum[:]) != w.sum {
				t.Errorf("%s workers=%d: segment of %d B with SHA-256 %x, want %d B with %s",
					c.name, workers, len(seg), sum, w.size, w.sum)
			}
		}
	}
}

// TestInsertParsesOnce: Insert parses each document into its tape and
// Flush builds from those tapes, so all parse time is on the clock by
// the last Insert and Flush adds none; every document counts as a tape
// document. A document past the tape limits is rejected at Insert and
// at Update with the parser's error naming the limit, like a malformed
// one, and changes nothing.
func TestInsertParsesOnce(t *testing.T) {
	lines := flushCorpora()[0].lines[:300]
	tbl := New("p", DefaultOptions())
	for _, l := range lines {
		if err := tbl.Insert(l); err != nil {
			t.Fatal(err)
		}
	}
	inserted := tbl.LoadStats()
	if inserted.Parse == 0 || inserted.DocsTape != 0 {
		t.Fatalf("after Insert: parse %v, %d tape documents; want parse > 0 and none built", inserted.Parse, inserted.DocsTape)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if flushed := tbl.LoadStats(); flushed.Parse != inserted.Parse || flushed.DocsTape != int64(len(lines)) {
		t.Errorf("after Flush: parse %v (was %v), %d tape documents; want parse unchanged, %d",
			flushed.Parse, inserted.Parse, flushed.DocsTape, len(lines))
	}

	row0 := slices.Clone(tbl.rel.(storage.TileIntrospector).Tiles()[0].RawBytes(0))
	defer jsontape.SetLimitsForTesting(4, 1<<20)()
	over := []byte(`{"tags":[1,2,3,4,5]}`)
	const want = "jsontape: container size exceeds tape limits"
	if err := tbl.Insert(over); err == nil || err.Error() != want {
		t.Errorf("Insert past the tape limits: error %v, want %q", err, want)
	}
	if _, err := tbl.Update(0, over); err == nil || err.Error() != want {
		t.Errorf("Update past the tape limits: error %v, want %q", err, want)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := tbl.LoadStats(); s.DocsTape != int64(len(lines)) || tbl.NumRows() != len(lines) {
		t.Errorf("after the rejected documents: %d tape documents, %d rows; want %d, %d",
			s.DocsTape, tbl.NumRows(), len(lines), len(lines))
	}
	if got := tbl.rel.(storage.TileIntrospector).Tiles()[0].RawBytes(0); !bytes.Equal(got, row0) {
		t.Error("the rejected Update changed row 0")
	}
}

// TestFlushWorkIsDeterministic: a flush builds its tiles on several
// workers, yet the work counts — like the segment bytes — do not
// depend on scheduling. Reordering hands its walks to the tile builds,
// so each document is walked once.
func TestFlushWorkIsDeterministic(t *testing.T) {
	for _, c := range flushCorpora() {
		first := flushOnce(t, c.lines)
		if first.FPNodes == 0 || first.SubsetTests == 0 || first.TilesBuilt != 2 || first.TapeWalks != int64(len(c.lines)) {
			t.Errorf("%s: FPNodes=%d SubsetTests=%d TilesBuilt=%d TapeWalks=%d", c.name, first.FPNodes, first.SubsetTests, first.TilesBuilt, first.TapeWalks)
		}
		if again := flushOnce(t, c.lines); again.FPNodes != first.FPNodes || again.SubsetTests != first.SubsetTests {
			t.Errorf("%s: work %d/%d then %d/%d", c.name, first.FPNodes, first.SubsetTests, again.FPNodes, again.SubsetTests)
		}
	}
}

// TestDocSplitCorpora: a segment stores each tile's documents split by
// top-level key, and on all three corpora Docs reassembles every
// document byte for byte from the parts; every tile splits off keys.
func TestDocSplitCorpora(t *testing.T) {
	for _, c := range flushCorpora() {
		rel, err := storage.BuildTilesFromLines(c.name, c.lines, storage.DefaultLoaderConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		tiles := rel.(storage.TileIntrospector).Tiles()
		store := blockstore.NewMem()
		if _, err := segment.WriteStore(store, "s.seg", tiles, rel.Stats()); err != nil {
			t.Fatal(err)
		}
		r, err := segment.OpenStore(store, "s.seg", nil)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tl := range tiles {
			if len(r.Tile(ti).Docs) == 0 {
				t.Errorf("%s tile %d splits off no key", c.name, ti)
			}
			docs, _, err := r.Docs(ti)
			if err != nil {
				t.Fatalf("%s tile %d: %v", c.name, ti, err)
			}
			for i, d := range docs {
				if !bytes.Equal(d, tl.RawBytes(i)) {
					t.Fatalf("%s tile %d document %d differs after the round trip", c.name, ti, i)
				}
			}
		}
		r.Close()
	}
}
