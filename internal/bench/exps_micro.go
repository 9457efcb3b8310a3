package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/exprparse"
	"repro/internal/storage"
	"repro/internal/tile"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
)

func twitterQueriesPlain() []func(storage.Relation, int) *engine.Result {
	var out []func(storage.Relation, int) *engine.Result
	for _, q := range twitter.Queries() {
		out = append(out, q.Run)
	}
	return out
}

// tpchSpans returns the per-table spans of the combined generation
// (regenerated deterministically; generation is cheap relative to
// loading).
func (c *Context) tpchSpans() map[string][2]int {
	return cached(c, "tpch-spans", func() map[string][2]int {
		_, spans := tpch.Generate(tpch.Config{ScaleFactor: c.Opts.Scale, Seed: 42})
		return spans
	})
}

func (c *Context) lineitemLines() [][]byte {
	return cached(c, "tpch-lineitem", func() [][]byte {
		spans := c.tpchSpans()
		lines := c.tpchLines()
		sp := spans["lineitem"]
		return lines[sp[0]:sp[1]]
	})
}

// sumLinenumber is the §6.7 micro benchmark: SELECT sum(l_linenumber).
func sumLinenumber(rel storage.Relation, workers int) *engine.Result {
	scan := engine.NewScan(rel, []storage.Access{
		exprparse.MustParse(`data->>'l_linenumber'::BigInt`),
	}, nil, nil)
	gb := engine.NewGroupBy(scan, nil, nil,
		[]engine.AggSpec{{Func: engine.Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "sum"}})
	return engine.Materialize(gb, workers)
}

// relationalBaseline is the pure relational comparison row: the
// linenumber column extracted once into a native int64 slice, scanned
// without any JSON machinery.
type relationalBaseline struct {
	vals []int64
}

func (c *Context) relational() *relationalBaseline {
	return cached(c, "relational-lineitem", func() *relationalBaseline {
		rel := c.relation("tpch-lineitem-jsonb", storage.KindJSONB, c.lineitemLines)
		rb := &relationalBaseline{}
		scan := engine.NewScan(rel, []storage.Access{
			exprparse.MustParse(`data->>'l_linenumber'::BigInt`),
		}, nil, nil)
		for _, row := range engine.Materialize(scan, 1).Rows {
			rb.vals = append(rb.vals, row[0].I)
		}
		return rb
	})
}

func (rb *relationalBaseline) sum() int64 {
	var total int64
	for _, v := range rb.vals {
		total += v
	}
	return total
}

// fig15 — Figure 15: summation-query throughput. "Comb." rows use the
// combined TPC-H collection (the summation must wade through foreign
// documents, or skip their tiles); "Only" rows use a pure lineitem
// collection. The relational row cannot use combined data (it has a
// schema).
func fig15(w io.Writer, c *Context) error {
	workers := c.Opts.workers()
	t := &table{header: []string{"system", "queries/sec", "seconds"}}

	rb := c.relational()
	d := c.timeIt(func() { _ = rb.sum() })
	t.row("Relational", qps(d), secs(d))

	type row struct {
		name string
		kind storage.FormatKind
		comb bool
	}
	rows := []row{
		{"JSON Comb.", storage.KindJSON, true},
		{"JSONB Comb.", storage.KindJSONB, true},
		{"Sinew Only", storage.KindSinew, false},
		{"Sinew Comb.", storage.KindSinew, true},
		{"Tiles Only", storage.KindTiles, false},
		{"Tiles Comb.", storage.KindTiles, true},
	}
	for _, r := range rows {
		var rel storage.Relation
		if r.comb {
			rel = c.tpchRel(r.kind)
		} else {
			rel = c.relation("tpch-lineitem", r.kind, c.lineitemLines)
		}
		d := c.timeIt(func() { sumLinenumber(rel, workers) })
		t.row(r.name, qps(d), secs(d))
	}
	t.write(w)
	return nil
}

// tab5 — Table 5: per-tuple costs of the summation query. Hardware
// counters (cycles, L1 misses) are not portably available; the
// substitution reports wall nanoseconds per tuple, which preserves the
// claim under test — the small static overhead of Tiles vs Sinew vs
// pure relational.
func tab5(w io.Writer, c *Context) error {
	workers := 1 // per-tuple costs are measured single-threaded
	nLineitem := len(c.lineitemLines())
	nAll := len(c.tpchLines())
	t := &table{header: []string{"system", "ns/tuple", "sec/query", "tuples"}}

	rb := c.relational()
	d := c.timeIt(func() { _ = rb.sum() })
	t.row("Relational", perTuple(d, nLineitem), secs(d), fmt.Sprintf("%d", nLineitem))

	rows := []struct {
		name string
		kind storage.FormatKind
		comb bool
	}{
		{"Tiles", storage.KindTiles, false},
		{"Sinew", storage.KindSinew, false},
		{"Sinew Comb.", storage.KindSinew, true},
		{"Tiles Comb.", storage.KindTiles, true},
	}
	for _, r := range rows {
		var rel storage.Relation
		n := nLineitem
		if r.comb {
			rel = c.tpchRel(r.kind)
			n = nAll
		} else {
			rel = c.relation("tpch-lineitem", r.kind, c.lineitemLines)
		}
		d := c.timeIt(func() { sumLinenumber(rel, workers) })
		t.row(r.name, perTuple(d, n), secs(d), fmt.Sprintf("%d", n))
	}
	t.write(w)
	return nil
}

func perTuple(d time.Duration, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(n))
}

// fig16 — Figure 16: insertion-time breakdown for tile construction
// (extract / mining / reordering / write JSONB).
func fig16(w io.Writer, c *Context) error {
	workers := c.Opts.workers()
	datasets := []struct {
		name  string
		lines [][]byte
	}{
		{"TPC-H", c.tpchLines()},
		{"Shuffled", c.tpchShuffled()},
		{"Yelp", c.yelpLines()},
		{"Twitter", c.twitterLines(false)},
		{"Changing", c.twitterLines(true)},
	}
	t := &table{header: []string{"dataset", "Extract", "Mining", "Reordering", "WriteJSONB"}}
	for _, ds := range datasets {
		var m tile.Metrics
		cfg := c.loaderConfig()
		cfg.Metrics = &m
		if _, err := storage.BuildTilesFromLines(ds.name, ds.lines, cfg, workers); err != nil {
			return err
		}
		ext := float64(m.ExtractNanos.Load())
		mine := float64(m.MineNanos.Load())
		reord := float64(m.ReorderNanos.Load())
		wj := float64(m.WriteJSONBNanos.Load())
		total := ext + mine + reord + wj
		if total == 0 {
			total = 1
		}
		pct := func(v float64) string { return fmt.Sprintf("%.0f%%", v/total*100) }
		t.row(ds.name, pct(ext), pct(mine), pct(reord), pct(wj))
	}
	t.write(w)
	return nil
}

// fig17 — Figure 17: parallel loading throughput (1000 tuples/sec).
func fig17(w io.Writer, c *Context) error {
	workers := c.Opts.workers()
	datasets := []struct {
		name  string
		lines [][]byte
	}{
		{"TPC-H", c.tpchLines()},
		{"Yelp", c.yelpLines()},
		{"Twitter", c.twitterLines(false)},
		{"Changing", c.twitterLines(true)},
	}
	t := &table{header: append([]string{"dataset"}, formatHeaders(internalFormats)...)}
	for _, ds := range datasets {
		cells := []string{ds.name}
		for _, kind := range internalFormats {
			l, _ := storage.NewLoader(kind, c.loaderConfig())
			d := c.timeIt(func() {
				if _, err := l.Load(ds.name, ds.lines, workers); err != nil {
					panic(err)
				}
			})
			ktps := float64(len(ds.lines)) / d.Seconds() / 1000
			cells = append(cells, fmt.Sprintf("%.0f", ktps))
		}
		t.row(cells...)
	}
	t.write(w)
	return nil
}

// tab6 — Table 6: storage sizes. "+Tiles" is the materialized-column
// overhead on top of the binary JSON; "+LZ4-Tiles" compresses the
// columnar extracts.
func tab6(w io.Writer, c *Context) error {
	datasets := []struct {
		name  string
		lines [][]byte
		rel   func() storage.Relation
	}{
		{"TPC-H", c.tpchLines(), func() storage.Relation { return c.tpchRel(storage.KindTiles) }},
		{"Yelp", c.yelpLines(), func() storage.Relation { return c.yelpRel(storage.KindTiles) }},
		{"Twitter", c.twitterLines(false), func() storage.Relation { return c.twitterRel(storage.KindTiles) }},
	}
	t := &table{header: []string{"dataset", "JSON", "JSONB", "+Tiles", "+LZ4-Tiles"}}
	for _, ds := range datasets {
		jsonSize := 0
		for _, l := range ds.lines {
			jsonSize += len(l)
		}
		tr := ds.rel().(interface {
			RawSizeBytes() int
			ColumnSizeBytes() int
			CompressedColumnSizeBytes() int
		})
		jsonb := tr.RawSizeBytes()
		tiles := tr.ColumnSizeBytes()
		lz4c := tr.CompressedColumnSizeBytes()
		mb := func(b int) string { return fmt.Sprintf("%.2f", float64(b)/1e6) }
		pct := func(b int) string { return fmt.Sprintf("%s (%.0f%%)", mb(b), float64(b)/float64(jsonb)*100) }
		t.row(ds.name, mb(jsonSize), mb(jsonb), pct(tiles), pct(lz4c))
	}
	t.write(w)
	return nil
}
