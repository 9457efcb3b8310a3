// Package sched provides the process-wide worker pool that parallel
// scans draw their helper goroutines from. Before the query service,
// every scan spawned its own `workers` goroutines; N concurrent
// queries therefore ran N×workers goroutines fighting over the same
// cores. The pool caps execution parallelism at the machine's core
// count: each scan drains its morsel queue inline on the calling
// goroutine and enlists up to workers−1 pool helpers, so concurrent
// queries share the cores instead of oversubscribing them — the
// morsel-driven equivalent of a database's shared worker scheduler.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool is a fixed-size worker pool fed by a bounded task queue.
// Submission is non-blocking: when the queue is full the caller keeps
// the work (runs it inline), so the pool can never deadlock on its own
// backlog and overload degrades to less parallelism, not more
// goroutines.
type Pool struct {
	tasks chan func()
}

// New returns a pool of n workers (minimum 1) with a task queue of
// 8×n slots — enough for several concurrent scans to park their
// helper requests without unbounded buildup.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan func(), 8*n)}
	for i := 0; i < n; i++ {
		go p.loop()
	}
	return p
}

func (p *Pool) loop() {
	for f := range p.tasks {
		f()
		obs.SchedTasksRun.Inc()
	}
}

// TrySubmit enqueues f for a pool worker, reporting whether it was
// accepted. A full queue rejects immediately — callers fall back to
// doing the work inline with less parallelism.
func (p *Pool) TrySubmit(f func()) bool {
	select {
	case p.tasks <- f:
		return true
	default:
		obs.SchedSubmitMisses.Inc()
		return false
	}
}

// Shared is the process-wide pool, sized to the machine: all scans —
// and through them all concurrent queries — share these workers.
var Shared = New(runtime.GOMAXPROCS(0))

// For calls fn(worker, i) once for every i in [0, n), with up to
// `workers` participants pulling indexes from one shared queue (an
// atomic fetch-add per item). The calling goroutine always drains the
// queue itself; the other participants are helpers borrowed from
// Shared with TrySubmit, so a saturated pool means fewer helpers, never
// a wait, and a helper that starts only after the queue ran dry does
// nothing. Worker ids are dense in [0, workers) and each belongs to one
// goroutine at a time, so fn may index per-worker state by it. ctx is
// checked before every claim. For returns once every claimed item has
// finished, with the number of participants that drained (at least
// one).
func For(ctx context.Context, n, workers int, fn func(worker, i int)) (participants int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(0, i)
		}
		return 1
	}
	var next atomic.Int64
	drain := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	gate := &drainGate{}
	gate.cond = sync.NewCond(&gate.mu)
	for w := 1; w < workers; w++ {
		ok := Shared.TrySubmit(func() {
			// A helper arriving after the drain closed does nothing:
			// its items were already claimed by the others.
			if !gate.enter() {
				obs.SchedHelpersLate.Inc()
				return
			}
			defer gate.exit()
			drain(w)
		})
		if !ok {
			break // pool saturated: run with fewer helpers
		}
	}
	gate.enter()
	drain(0)
	gate.exit()
	return gate.closeAndWait()
}

// drainGate coordinates the inline drain with pool helpers: helpers
// register on start and are refused once the drain is closed, so For
// waits only for helpers that actually began working — a helper still
// queued behind other work when the queue runs dry becomes a no-op
// instead of a latency tax.
type drainGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	active  int
	entered int
	closed  bool
}

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.active++
	g.entered++
	return true
}

func (g *drainGate) exit() {
	g.mu.Lock()
	g.active--
	if g.active == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// closeAndWait refuses new helpers, waits out the active ones and
// returns how many participants entered.
func (g *drainGate) closeAndWait() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for g.active > 0 {
		g.cond.Wait()
	}
	return g.entered
}
