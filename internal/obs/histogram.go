package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution of observed values —
// latencies, sizes — cheap enough for per-query recording: one atomic
// add into the matching bucket, one atomic add to the count, one CAS
// loop for the float sum. Bucket bounds are fixed at construction
// (exponential layouts via ExpBuckets), so two histograms with equal
// bounds merge bucket-by-bucket and snapshots subtract for deltas.
type Histogram struct {
	bounds  []float64      // sorted upper bounds; implicit +Inf last bucket
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start: start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default layout for latency histograms:
// 1µs → ~537s in ×2 steps.
var DurationBuckets = ExpBuckets(1e-6, 2, 30)

// SizeBuckets is the default layout for byte-size histograms:
// 1KiB → 1GiB in ×4 steps.
var SizeBuckets = ExpBuckets(1024, 4, 11)

// NewHistogram builds a histogram with the given upper bounds (nil
// selects DurationBuckets). Bounds must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; +Inf bucket past the end
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Merge folds other's observations into h. Both histograms must share
// the same bucket bounds; after a successful merge h reports exactly
// what recording the union of both sample streams would have.
func (h *Histogram) Merge(other *Histogram) error {
	if h == nil || other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d bounds", len(h.bounds), len(other.bounds))
	}
	for i, b := range h.bounds {
		if b != other.bounds[i] {
			return fmt.Errorf("obs: merging histograms with different bounds at %d (%g vs %g)", i, b, other.bounds[i])
		}
	}
	for i := range other.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
	h.count.Add(other.count.Load())
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + other.Sum())
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// Snapshot copies the histogram state. Concurrent observations may
// straddle the copy (a bucket add visible without its count add); the
// skew is at most the observations in flight at that instant.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram: per-bucket
// counts (Counts[i] observed ≤ Bounds[i]; the final slot is the +Inf
// bucket), total count, and value sum.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Diff returns s minus base, bucket by bucket — the distribution of
// observations recorded between the two snapshots. An empty base
// passes s through.
func (s HistSnapshot) Diff(base HistSnapshot) HistSnapshot {
	if len(base.Counts) == 0 {
		return s
	}
	if len(s.Counts) == 0 {
		// Histogram present only in the base: report it negated so the
		// delta still accounts for it (mirrors Snapshot.Diff counters).
		return base.Neg()
	}
	out := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - base.Count,
		Sum:    s.Sum - base.Sum,
	}
	for i := range s.Counts {
		c := s.Counts[i]
		if i < len(base.Counts) {
			c -= base.Counts[i]
		}
		out.Counts[i] = c
	}
	return out
}

// Neg returns the snapshot with every count and the sum negated.
func (s HistSnapshot) Neg() HistSnapshot {
	out := HistSnapshot{Bounds: s.Bounds, Counts: make([]int64, len(s.Counts)), Count: -s.Count, Sum: -s.Sum}
	for i, c := range s.Counts {
		out.Counts[i] = -c
	}
	return out
}
