package storage

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/vec"
)

// --- cancellation behavior of the morsel scheduler --------------------------

// TestRunMorselsCancelBounded: cancelling the context mid-scan stops
// claiming promptly. The bound is one in-flight morsel per
// participant (the caller plus each pool helper), because the context
// is checked before every claim but never inside fn.
func TestRunMorselsCancelBounded(t *testing.T) {
	const n = 100
	morsels := make([]morsel, n)
	for i := range morsels {
		morsels[i] = morsel{lo: i, hi: i + 1}
	}
	workers := 4
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	runMorsels(ctx, morsels, workers, func(w int, m morsel) {
		ran.Add(1)
		cancel() // first morsel cancels everyone
	})
	// Each of the at-most-`workers` participants can have claimed one
	// morsel before observing the cancel.
	if got := ran.Load(); got > int64(workers) {
		t.Fatalf("ran %d morsels after cancel, want <= %d (one in-flight per worker)", got, workers)
	}
	if got := ran.Load(); got == 0 {
		t.Fatal("no morsel ran at all")
	}
}

// TestRunMorselsPreCancelled: an already-cancelled context runs
// nothing.
func TestRunMorselsPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	morsels := []morsel{{0, 1}, {1, 2}}
	runMorsels(ctx, morsels, 4, func(w int, m morsel) { ran.Add(1) })
	if got := ran.Load(); got != 0 {
		t.Fatalf("pre-cancelled context ran %d morsels, want 0", got)
	}
	// Serial path too.
	runMorsels(ctx, morsels, 1, func(w int, m morsel) { ran.Add(1) })
	if got := ran.Load(); got != 0 {
		t.Fatalf("pre-cancelled context ran %d morsels serially, want 0", got)
	}
}

// TestMorselRangeCtxCancelSerial: the serial path (workers == 1)
// checks the context between morsels.
func TestMorselRangeCtxCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	morselRange(ctx, 10*DefaultMorselRows, 1, func(w, lo, hi int) {
		calls++
		cancel()
	})
	if calls != 1 {
		t.Fatalf("serial scan ran %d morsels after first-call cancel, want 1", calls)
	}
}

// TestRunMorselsCompletesWithoutCancel: a context that is never
// cancelled still covers every morsel exactly once (regression guard:
// the ctx checks must not skip work).
func TestRunMorselsCompletesWithoutCancel(t *testing.T) {
	const n = 257
	morsels := make([]morsel, n)
	for i := range morsels {
		morsels[i] = morsel{lo: i, hi: i + 1}
	}
	seen := make([]int32, n)
	var mu sync.Mutex
	runMorsels(context.Background(), morsels, 3, func(w int, m morsel) {
		mu.Lock()
		seen[m.lo]++
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("morsel %d run %d times, want 1", i, c)
		}
	}
}

// --- cancellation of a store-backed scan -----------------------------------

// TestFetchWindowCancel: cancelling mid-scan stops the window issuing,
// waits out what is in flight, and leaves nothing behind — no pin, no
// generation reference, no goroutine.
func TestFetchWindowCancel(t *testing.T) {
	mem, cfg := fetchTestStore(t, 12, 256, 200) // one tile per morsel at 3 workers
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 2 * time.Millisecond})
	base := runtime.NumGoroutine()
	dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, batches := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var rows atomic.Int64
		if batches {
			dt.ScanBatches(ctx, padAccess, 3, func(_ int, b *vec.Batch) { rows.Add(int64(b.Len)); cancel() }, nil)
		} else {
			dt.ScanWithStats(ctx, padAccess, 3, func(int, []expr.Value) { rows.Add(1); cancel() }, nil)
		}
		cancel()
		if n := rows.Load(); n == 0 || n >= 12*256 {
			t.Errorf("batches=%v: cancelled scan emitted %d of %d rows", batches, n, 12*256)
		}
		if pinned := dt.Pool().Stats().PinnedBytes; pinned != 0 {
			t.Errorf("batches=%v: %d bytes pinned after cancel", batches, pinned)
		}
		dt.mu.Lock()
		for _, ls := range dt.segs {
			if refs := ls.refs.Load(); refs != 1 {
				t.Errorf("batches=%v: segment %s holds %d references after cancel, want 1", batches, ls.file, refs)
			}
		}
		dt.mu.Unlock()
	}
	// The table still answers in full after the cancelled scans.
	if got := len(batchMultiset(dt, idAccess, 3)); got != 12*256 {
		t.Errorf("scan after cancel saw %d distinct rows, want %d", got, 12*256)
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before the table was opened", n, base)
	}
}
