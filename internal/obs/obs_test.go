package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // concurrent get-or-create
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
}

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(10)
	r.Counter("b").Add(3)
	base := r.Snapshot()
	r.Counter("a").Add(5)
	r.Counter("c").Add(7)
	d := r.Snapshot().Diff(base)
	if d.Get("a") != 5 || d.Get("b") != 0 || d.Get("c") != 7 {
		t.Fatalf("diff = %v", d)
	}
}

func TestWriteToSortedFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(2)
	r.Counter("alpha").Add(1)
	r.Gauge("mid").Set(1.5)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE alpha counter\n" +
		"alpha 1\n" +
		"# TYPE zeta counter\n" +
		"zeta 2\n" +
		"# TYPE mid gauge\n" +
		"mid 1.5\n" +
		"# TYPE lat histogram\n" +
		"lat_bucket{le=\"1\"} 1\n" +
		"lat_bucket{le=\"10\"} 2\n" +
		"lat_bucket{le=\"+Inf\"} 3\n" +
		"lat_sum 55.5\n" +
		"lat_count 3\n"
	if sb.String() != want {
		t.Fatalf("export = %q, want %q", sb.String(), want)
	}
}

// Regression: Diff used to iterate only the newer snapshot's names,
// silently dropping instruments present only in the base (e.g. after
// comparing against a different registry). They must surface as
// negative deltas.
func TestSnapshotDiffKeepsBaseOnlyNames(t *testing.T) {
	older := NewRegistry()
	older.Counter("gone").Add(4)
	older.Gauge("gone_gauge").Set(2.5)
	gh := older.Histogram("gone_hist", []float64{1})
	gh.Observe(0.5)
	base := older.Snapshot()

	newer := NewRegistry()
	newer.Counter("fresh").Add(1)
	d := newer.Snapshot().Diff(base)

	if d.Get("fresh") != 1 {
		t.Fatalf("fresh = %d, want 1", d.Get("fresh"))
	}
	if d.Get("gone") != -4 {
		t.Fatalf("gone = %d, want -4 (base-only counters must not be dropped)", d.Get("gone"))
	}
	if d.GaugeVal("gone_gauge") != -2.5 {
		t.Fatalf("gone_gauge = %v, want -2.5", d.GaugeVal("gone_gauge"))
	}
	hs := d.Hist("gone_hist")
	if hs.Count != -1 || hs.Sum != -0.5 {
		t.Fatalf("gone_hist = %+v, want count -1 sum -0.5", hs)
	}
}

// Stress for the -race detector: concurrent get-or-create of all
// three instrument kinds interleaved with snapshots and exports.
func TestRegistryConcurrentMixed(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{1, 10, 100}).Observe(float64(i % 200))
				if i%100 == 0 {
					s := r.Snapshot()
					var sb strings.Builder
					if _, err := s.WriteTo(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	const n = workers * perWorker
	if got := r.Counter("c").Load(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	if got := r.Gauge("g").Load(); got != n {
		t.Fatalf("gauge = %v, want %d", got, n)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
}

func TestScanStatsSkipRatio(t *testing.T) {
	if (ScanCounts{}).SkipRatio() != 0 {
		t.Fatal("empty counts skip ratio")
	}
	if got := (ScanCounts{TilesScanned: 6, TilesSkipped: 4}).SkipRatio(); got != 0.4 {
		t.Fatalf("skip ratio = %v, want 0.4", got)
	}
}
