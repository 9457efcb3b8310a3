package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsSubmittedTasks(t *testing.T) {
	p := New(2)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		for !p.TrySubmit(func() { n.Add(1); wg.Done() }) {
			time.Sleep(time.Millisecond) // queue full: wait for drain
		}
	}
	wg.Wait()
	if got := n.Load(); got != 50 {
		t.Fatalf("ran %d tasks, want 50", got)
	}
}

// TestForRunsEveryItemOnce: every index runs exactly once, on a worker
// id below the bound, serially or not, and For returns only after the
// last item finished.
func TestForRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 64} {
		for _, n := range []int{0, 1, 3, 1000} {
			hits := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			p := For(context.Background(), n, workers, func(w, i int) {
				if w < 0 || w >= max(workers, 1) {
					badWorker.Store(true)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, got)
				}
			}
			if badWorker.Load() || p < 1 || p > max(workers, 1) {
				t.Fatalf("workers=%d n=%d: %d participants, bad worker id %v", workers, n, p, badWorker.Load())
			}
		}
	}
}

// TestForDrainsInlineWhenPoolIsBusy: with every pool worker blocked, a
// parallel For still finishes — on the calling goroutine alone.
func TestForDrainsInlineWhenPoolIsBusy(t *testing.T) {
	block := make(chan struct{})
	var started sync.WaitGroup
	poolWorkers := cap(Shared.tasks) / 8
	started.Add(poolWorkers)
	for i := 0; i < poolWorkers; i++ {
		for !Shared.TrySubmit(func() { started.Done(); <-block }) {
		}
	}
	started.Wait()
	for Shared.TrySubmit(func() {}) { // fill the queue behind them
	}
	var ran atomic.Int64
	p := For(context.Background(), 100, 8, func(w, i int) { ran.Add(1) })
	close(block)
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100 items", ran.Load())
	}
	if p != 1 {
		t.Errorf("%d participants with the pool saturated, want the caller alone", p)
	}
}

// TestForStopsOnCancel: a cancelled context stops the claims.
func TestForStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	For(ctx, 1000, 1, func(w, i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if ran.Load() != 10 {
		t.Fatalf("ran %d items after cancelling at 10", ran.Load())
	}
}

func TestTrySubmitRejectsWhenSaturated(t *testing.T) {
	p := New(1) // 1 worker, queue of 8
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Occupy the worker...
	for !p.TrySubmit(func() { <-block; wg.Done() }) {
	}
	// ...then fill the queue until rejection.
	rejected := false
	for i := 0; i < 100; i++ {
		if !p.TrySubmit(func() {}) {
			rejected = true
			break
		}
	}
	close(block)
	wg.Wait()
	if !rejected {
		t.Fatal("TrySubmit never rejected with a blocked worker and 100 pending tasks")
	}
}
