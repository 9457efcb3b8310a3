package jsontiles

import (
	"testing"

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
// deterministic work counts of mining and reordering per document,
// which compare across hosts where the timings do not.
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
		})
	}
}

// TestFlushWorkIsDeterministic: a flush builds its tiles on several
// workers, yet the work counts — like the segment bytes — do not
// depend on scheduling.
func TestFlushWorkIsDeterministic(t *testing.T) {
	for _, c := range flushCorpora() {
		first := flushOnce(t, c.lines)
		if first.FPNodes == 0 || first.SubsetTests == 0 || first.TilesBuilt != 2 {
			t.Errorf("%s: FPNodes=%d SubsetTests=%d TilesBuilt=%d", c.name, first.FPNodes, first.SubsetTests, first.TilesBuilt)
		}
		if again := flushOnce(t, c.lines); again.FPNodes != first.FPNodes || again.SubsetTests != first.SubsetTests {
			t.Errorf("%s: work %d/%d then %d/%d", c.name, first.FPNodes, first.SubsetTests, again.FPNodes, again.SubsetTests)
		}
	}
}
