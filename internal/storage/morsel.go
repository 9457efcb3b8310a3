package storage

import (
	"context"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Morsel-driven parallel execution (Leis et al., "Morsel-Driven
// Parallelism"): instead of statically splitting an input range into
// one chunk per worker, the input is cut into many small morsels that
// all workers pull from one shared queue. A worker that finishes its
// morsel immediately grabs the next, so skewed tile sizes, skipped
// tiles, and workers > morsels no longer leave cores idle behind the
// slowest static chunk. The queue is a prebuilt slice consumed with a
// single atomic fetch-add per morsel — no locks, no channels.
//
// Two properties matter for the query service on top:
//
//   - Cancellation: the queue checks ctx before every morsel claim, so
//     a cancelled query stops within one morsel (~32K rows) on every
//     worker, releases its tile views, and lets segment pins drop.
//   - Shared workers: parallel drains run inline on the caller plus
//     helpers borrowed from the process-wide sched pool, so N
//     concurrent queries share the machine's cores instead of each
//     spawning its own `workers` goroutines. A saturated pool just
//     means fewer helpers — the inline drain always makes progress.

// DefaultMorselRows is the target number of rows per morsel; small
// inputs shrink it (morselSizeFor). The paper-style sweet spot is
// 16–64K rows: large enough that per-morsel setup (tile access
// resolution, scratch checkout) is amortized, small enough that a
// scan produces several morsels per worker.
const DefaultMorselRows = 32 << 10

// minRowsPerMorsel floors the adaptive morsel size so tiny inputs are
// not shredded into per-row morsels whose scheduling overhead would
// dominate the work.
const minRowsPerMorsel = 256

// morselsPerWorker is how many morsels per worker the adaptive sizing
// aims for at minimum — enough queue slack to absorb skew without a
// worker idling behind one outsized chunk.
const morselsPerWorker = 4

// morsel is one unit of schedulable work: the tiles [lo, hi) of a tile
// source, or the items [lo, hi) of a flat one.
type morsel struct{ lo, hi int }

// morselSizeFor adapts the target morsel size to the input: aim for
// `target` rows, but shrink (down to minRowsPerMorsel) when the input is
// so small that target-sized morsels would not give every worker
// morselsPerWorker pulls.
func morselSizeFor(n, workers, target int) int {
	if workers > 1 {
		if per := n / (workers * morselsPerWorker); per < target {
			target = per
		}
	}
	if target < minRowsPerMorsel {
		target = minRowsPerMorsel
	}
	return target
}

// runMorsels drives fn over the morsel queue with up to `workers`
// participants through sched.For: the calling goroutine plus helpers
// borrowed from the shared scheduler pool. Worker ids passed to fn are
// dense in [0, workers). ctx is checked before every morsel claim,
// bounding cancellation latency to one morsel per participant. The
// morsels_dispatched / morsel_queue_waits counters and the per-scan
// worker-skew histogram are maintained here, once per queue drain.
func runMorsels(ctx context.Context, morsels []morsel, workers int, fn func(worker int, m morsel)) {
	n := len(morsels)
	if n == 0 || ctx.Err() != nil {
		return
	}
	workers = max(workers, 1)
	obs.MorselsDispatched.Add(int64(n))
	if workers > n {
		// Surplus workers would pull from an already-dry queue.
		obs.MorselQueueWaits.Add(int64(workers - n))
		workers = n
	}
	// counts[w] is written only by worker w's goroutine and read after
	// sched.For has waited every participant out.
	counts := make([]int64, workers)
	participants := sched.For(ctx, n, workers, func(w, i int) {
		fn(w, morsels[i])
		counts[w]++
	})
	if workers == 1 {
		return
	}
	var maxGot, total int64
	busy := 0
	for _, c := range counts {
		if c > 0 {
			busy++
		}
		total += c
		maxGot = max(maxGot, c)
	}
	// Participants that drained but found the queue already dry.
	obs.MorselQueueWaits.Add(int64(participants - busy))
	if total > 0 {
		// max/mean morsels per participant: 1.0 = perfectly balanced.
		obs.MorselWorkerSkew.Observe(float64(maxGot) * float64(participants) / float64(total))
	}
}

// morselRange is the drop-in replacement for static range splitting
// over n uniform items: fn(worker, lo, hi) is invoked once per morsel
// of adaptively-sized item ranges that workers pull dynamically. Scans
// of formats without tiles pass the query context, so cancellation
// stops them at the next morsel claim; load paths pass Background.
func morselRange(ctx context.Context, n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	size := morselSizeFor(n, workers, DefaultMorselRows)
	ms := make([]morsel, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		ms = append(ms, morsel{lo: lo, hi: hi})
	}
	runMorsels(ctx, ms, workers, func(w int, m morsel) { fn(w, m.lo, m.hi) })
}

// morselEach is the per-item parallel-for: every item of [0, n) is its
// own morsel, for coarse units such as tile partitions, where one item
// is already thousands of documents. Load-path loops have no
// per-request context; they run under Background.
func morselEach(n, workers int, fn func(worker, i int)) {
	ms := make([]morsel, n)
	for i := range ms {
		ms[i] = morsel{lo: i, hi: i + 1}
	}
	runMorsels(context.Background(), ms, workers, func(w int, m morsel) { fn(w, m.lo) })
}

// buildTileMorsels cuts a tile sequence into morsels of ~target rows:
// consecutive tiny tiles are batched into one morsel, and a big tile
// is a morsel of its own. A tile is never split, because a batch
// aliases one tile's column slices.
func buildTileMorsels(rowCounts []int, workers, target int) []morsel {
	total := 0
	for _, r := range rowCounts {
		total += r
	}
	size := morselSizeFor(total, workers, target)
	ms := make([]morsel, 0, workers*morselsPerWorker)
	runLo, runRows := 0, 0
	for ti, r := range rowCounts {
		if runRows += r; runRows >= size {
			ms = append(ms, morsel{lo: runLo, hi: ti + 1})
			runLo, runRows = ti+1, 0
		}
	}
	if runLo < len(rowCounts) {
		ms = append(ms, morsel{lo: runLo, hi: len(rowCounts)})
	}
	return ms
}
