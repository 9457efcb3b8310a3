package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestHistogramObserveBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.5 and 1 land in le=1 (SearchFloat64s: first bound >= v).
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 556.5 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should be inert")
	}
	if err := h.Merge(NewHistogram(nil)); err != nil {
		t.Fatal(err)
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot should be zero")
	}
}

// Property: merging two histograms reports exactly what one histogram
// recording the union of both sample streams would have — bucket by
// bucket, count, and sum (within float tolerance for the sum, whose
// addition order differs).
func TestHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := ExpBuckets(0.001, 10, 6)
	for trial := 0; trial < 50; trial++ {
		a := NewHistogram(bounds)
		b := NewHistogram(bounds)
		union := NewHistogram(bounds)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			v := math.Exp(rng.Float64()*20 - 10) // spread across all buckets
			a.Observe(v)
			union.Observe(v)
		}
		for i, n := 0, rng.Intn(200); i < n; i++ {
			v := math.Exp(rng.Float64()*20 - 10)
			b.Observe(v)
			union.Observe(v)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		got, want := a.Snapshot(), union.Snapshot()
		if got.Count != want.Count {
			t.Fatalf("trial %d: count %d, want %d", trial, got.Count, want.Count)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("trial %d bucket %d: %d, want %d", trial, i, got.Counts[i], want.Counts[i])
			}
		}
		if diff := math.Abs(got.Sum - want.Sum); diff > 1e-9*math.Abs(want.Sum)+1e-12 {
			t.Fatalf("trial %d: sum %v, want %v", trial, got.Sum, want.Sum)
		}
	}
}

func TestHistogramMergeRejectsDifferentBounds(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	if err := a.Merge(NewHistogram([]float64{1, 2, 3})); err == nil {
		t.Fatal("merge with different bucket counts should fail")
	}
	if err := a.Merge(NewHistogram([]float64{1, 5})); err == nil {
		t.Fatal("merge with different bounds should fail")
	}
}

func TestHistogramSnapshotDiff(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	base := h.Snapshot()
	h.Observe(5)
	h.Observe(5)
	d := h.Snapshot().Diff(base)
	if d.Count != 2 || d.Sum != 10 {
		t.Fatalf("diff count=%d sum=%v", d.Count, d.Sum)
	}
	if d.Counts[0] != 0 || d.Counts[1] != 2 {
		t.Fatalf("diff counts = %v", d.Counts)
	}
}

func TestGaugeSetAddLoad(t *testing.T) {
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge should be inert")
	}
	g = &Gauge{}
	g.Set(10.5)
	g.Add(-3)
	g.Add(0.5)
	if got := g.Load(); got != 8 {
		t.Fatalf("gauge = %v, want 8", got)
	}
}

func TestQueryRegistryLifecycle(t *testing.T) {
	r := NewQueryRegistry()
	st := &ScanStats{}
	st.Add(&ScanCounts{RowsScanned: 7, TilesScanned: 2, StoreBytesRead: 1024})
	h := r.Begin("abcd", []string{"events"}, []*ScanStats{st})
	if r.NumLive() != 1 {
		t.Fatalf("live = %d, want 1", r.NumLive())
	}
	live := r.Live()
	if len(live) != 1 {
		t.Fatalf("Live() = %d entries", len(live))
	}
	p := live[0]
	if p.ID != h.ID || p.Digest != "abcd" || p.Rows != 7 || p.TilesScanned != 2 || p.Bytes != 1024 {
		t.Fatalf("progress = %+v", p)
	}
	h.Finish()
	h.Finish() // idempotent
	if r.NumLive() != 0 {
		t.Fatalf("live after finish = %d", r.NumLive())
	}
	var nilH *QueryHandle
	nilH.Finish()
	if rows, _, _, _ := nilH.Progress(); rows != 0 {
		t.Fatal("nil handle progress")
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	ring := NewTraceRing(3)
	for i := uint64(1); i <= 5; i++ {
		ring.Add(QueryTrace{ID: i})
	}
	got := ring.Last(0)
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 5 {
		t.Fatalf("ring = %+v", got)
	}
	if last := ring.Last(2); len(last) != 2 || last[0].ID != 4 {
		t.Fatalf("last(2) = %+v", last)
	}
}

// TestWriteChromeTrace: a query's events are "query <digest>", "plan"
// and "execute", on the query's thread, with execute inside query; a
// trace without plan time has no plan event.
func TestWriteChromeTrace(t *testing.T) {
	start := time.UnixMicro(1_000_000)
	traces := []QueryTrace{
		{ID: 7, Digest: "beef", Start: start, Wall: 900 * time.Microsecond,
			Plan: 100 * time.Microsecond, ExecOffset: 150 * time.Microsecond, Exec: 700 * time.Microsecond},
		{ID: 8, Digest: "cafe", Start: start, Wall: 500 * time.Microsecond,
			ExecOffset: 20 * time.Microsecond, Exec: 400 * time.Microsecond},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, traces); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  uint64
			Ts   int64
			Dur  int64
		}
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	type span struct{ ts, dur int64 }
	events := map[string]span{}
	var names []string
	for _, e := range out.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %s has phase %q, want X", e.Name, e.Ph)
		}
		key := fmt.Sprintf("%d %s", e.Tid, e.Name)
		names = append(names, key)
		events[key] = span{e.Ts, e.Dur}
	}
	want := []string{"7 query beef", "7 plan", "7 execute", "8 query cafe", "8 execute"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	for _, id := range []string{"7 query beef", "8 query cafe"} {
		q, e := events[id], events[id[:1]+" execute"]
		if e.ts < q.ts || e.ts+e.dur > q.ts+q.dur {
			t.Errorf("%s: execute [%d, +%d] lies outside query [%d, +%d]", id, e.ts, e.dur, q.ts, q.dur)
		}
	}
	if p := events["7 plan"]; p.ts != start.UnixMicro() || p.dur != 100 {
		t.Errorf("plan event = %+v, want it at the query start for 100us", p)
	}
}
