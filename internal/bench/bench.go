// Package bench implements the experiment harness: one runner per
// table and figure of the paper's evaluation (§6), each regenerating
// the corresponding rows/series on the synthetic workloads. Runners
// print paper-style output; EXPERIMENTS.md records a captured run
// next to the paper's numbers.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/tile"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// Options scales the experiments.
type Options struct {
	// Scale is the TPC-H scale factor (also scales Yelp and Twitter
	// document counts proportionally).
	Scale float64
	// Workers bounds scan parallelism (0 = GOMAXPROCS).
	Workers int
	// Repeats is the number of timed repetitions per measurement; the
	// median is reported.
	Repeats int
}

// DefaultOptions is sized for a laptop-class machine.
func DefaultOptions() Options {
	return Options{Scale: 0.01, Workers: 0, Repeats: 3}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, ctx *Context) error
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig7", "Figure 7: external-competitor throughput, Q1/Q18 (queries/sec, all workers)", fig7},
		{"fig8", "Figure 8: scalability of internal competitors, Q1/Q18", fig8},
		{"tab1", "Table 1: execution times for all 22 TPC-H queries (seconds)", tab1},
		{"tab2", "Table 2: execution times for all Yelp queries (seconds)", tab2},
		{"tab3", "Table 3: execution times for all Twitter queries (seconds)", tab3},
		{"tab4", "Table 4: geo-mean of Twitter, static vs changing structure (seconds)", tab4},
		{"fig9", "Figure 9: shuffled TPC-H geometric mean (seconds)", fig9},
		{"fig10", "Figure 10: geo-mean of shuffled TPC-H vs tile/partition size", fig10},
		{"fig11", "Figure 11: loading time of shuffled TPC-H vs tile/partition size", fig11},
		{"fig12", "Figure 12: Yelp geo-mean vs tile size", fig12},
		{"fig13", "Figure 13: Twitter geo-mean vs tile size", fig13},
		{"fig14", "Figure 14: geometric means at different optimization levels", fig14},
		{"fig15", "Figure 15: throughput of the summation query (queries/sec)", fig15},
		{"tab5", "Table 5: per-tuple costs for the summation query", tab5},
		{"fig16", "Figure 16: insertion time breakdown", fig16},
		{"fig17", "Figure 17: parallel loading (1000 tuples/sec)", fig17},
		{"tab6", "Table 6: storage size in MB (% of JSONB)", tab6},
		{"fig18", "Figure 18: (de)serialization slowdown vs JSONB", fig18},
		{"fig19", "Figure 19: storage size relative to JSON text", fig19},
		{"fig20", "Figure 20: random accesses/sec on nested documents", fig20},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Context caches generated workloads and loaded relations across
// experiments of one run.
type Context struct {
	Opts Options
	// Metrics accumulates the tile-loading breakdown (parse, mine,
	// extract, jsonb, reorder) across every load this context performs;
	// the CLI prints the per-experiment delta.
	Metrics *tile.Metrics
	mu      sync.Mutex
	cache   map[string]any
}

// NewContext returns a fresh cache.
func NewContext(opts Options) *Context {
	if opts.Repeats < 1 {
		opts.Repeats = 1
	}
	if opts.Scale <= 0 {
		opts.Scale = DefaultOptions().Scale
	}
	return &Context{Opts: opts, Metrics: &tile.Metrics{}, cache: map[string]any{}}
}

func cached[T any](c *Context, key string, build func() T) T {
	c.mu.Lock()
	if v, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return v.(T)
	}
	c.mu.Unlock()
	v := build()
	c.mu.Lock()
	c.cache[key] = v
	c.mu.Unlock()
	return v
}

// Workload lines.

func (c *Context) tpchLines() [][]byte {
	return cached(c, "tpch-lines", func() [][]byte {
		lines, _ := tpch.Generate(tpch.Config{ScaleFactor: c.Opts.Scale, Seed: 42})
		return lines
	})
}

func (c *Context) tpchShuffled() [][]byte {
	return cached(c, "tpch-shuffled", func() [][]byte {
		return tpch.Shuffle(c.tpchLines(), 77)
	})
}

func (c *Context) yelpLines() [][]byte {
	return cached(c, "yelp-lines", func() [][]byte {
		f := c.Opts.Scale / 0.01
		cfg := yelp.Config{
			Businesses: imax(50, int(2000*f)), Users: imax(100, int(4000*f)),
			Reviews: imax(400, int(16000*f)), Tips: imax(100, int(4000*f)),
			Checkins: imax(50, int(2000*f)), Seed: 42,
		}
		lines, _ := yelp.Generate(cfg)
		return lines
	})
}

func (c *Context) twitterLines(changing bool) [][]byte {
	key := "twitter-lines"
	if changing {
		key = "twitter-changing"
	}
	return cached(c, key, func() [][]byte {
		f := c.Opts.Scale / 0.01
		return twitter.Generate(twitter.Config{
			Tweets: imax(1000, int(30000*f)), DeleteRatio: 0.4,
			Changing: changing, Seed: 42,
		})
	})
}

func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Loaded relations.

var allFormats = []storage.FormatKind{storage.KindJSON, storage.KindJSONB,
	storage.KindSinew, storage.KindTiles, storage.KindShredded}

var internalFormats = []storage.FormatKind{storage.KindJSON, storage.KindJSONB,
	storage.KindSinew, storage.KindTiles}

func (c *Context) loaderConfig() storage.LoaderConfig {
	cfg := storage.DefaultLoaderConfig()
	cfg.Metrics = c.Metrics
	return cfg
}

func (c *Context) relation(workload string, kind storage.FormatKind, lines func() [][]byte) storage.Relation {
	return cached(c, workload+"/"+string(kind), func() storage.Relation {
		l, err := storage.NewLoader(kind, c.loaderConfig())
		if err != nil {
			panic(err)
		}
		rel, err := l.Load(workload, lines(), c.Opts.workers())
		if err != nil {
			panic(err)
		}
		return rel
	})
}

func (c *Context) tpchRel(kind storage.FormatKind) storage.Relation {
	return c.relation("tpch", kind, c.tpchLines)
}

func (c *Context) yelpRel(kind storage.FormatKind) storage.Relation {
	return c.relation("yelp", kind, c.yelpLines)
}

func (c *Context) twitterRel(kind storage.FormatKind) storage.Relation {
	return c.relation("twitter", kind, func() [][]byte { return c.twitterLines(false) })
}

func (c *Context) twitterStar(changing bool) *storage.TilesStar {
	key := "twitter-star"
	if changing {
		key += "-changing"
	}
	return cached(c, key, func() *storage.TilesStar {
		star, err := storage.BuildTilesStar("twitter", c.twitterLines(changing),
			c.loaderConfig(), c.Opts.workers(), twitter.IDPath(), twitter.ArrayPaths()...)
		if err != nil {
			panic(err)
		}
		return star
	})
}

// Measurement helpers.

// timeIt returns the median wall time of fn over the configured
// repetitions.
func (c *Context) timeIt(fn func()) time.Duration {
	times := make([]time.Duration, 0, c.Opts.Repeats)
	for i := 0; i < c.Opts.Repeats; i++ {
		start := time.Now()
		fn()
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// geoMean of durations in seconds.
func geoMean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	logSum := 0.0
	for _, d := range ds {
		s := d.Seconds()
		if s <= 0 {
			s = 1e-9
		}
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(ds)))
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func qps(d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", 1/d.Seconds())
}

// runTPCHQuery executes one TPC-H query and returns its median time.
func (c *Context) runTPCHQuery(rel storage.Relation, num, workers int) time.Duration {
	q, ok := tpch.QueryByNum(num)
	if !ok {
		panic(fmt.Sprintf("no TPC-H query %d", num))
	}
	return c.timeIt(func() { q.Run(rel, workers) })
}

// loadTiles builds a Tiles relation with a custom tile config (for the
// tuning sweeps), bypassing the cache.
func (c *Context) loadTiles(lines [][]byte, tcfg tile.Config, reorder bool) storage.Relation {
	cfg := c.loaderConfig()
	cfg.Tile = tcfg
	cfg.Reorder = reorder
	l, err := storage.NewLoader(storage.KindTiles, cfg)
	if err != nil {
		panic(err)
	}
	rel, err := l.Load("sweep", lines, c.Opts.workers())
	if err != nil {
		panic(err)
	}
	return rel
}
