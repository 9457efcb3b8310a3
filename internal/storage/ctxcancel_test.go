package storage

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/segment"
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

// --- a block that fails its read stops the scan ----------------------------

// TestScanFaultStopsTheScan: a column block that fails its checksum
// stops the scan the way cancellation does. The error reaches the
// scan's sink, and a directory table's Err. At one worker the scan
// ends at the tile that faulted, after the fetch window served the
// tiles before it, and claims no further morsel (tiles 32–39 are the
// second morsel).
func TestScanFaultStopsTheScan(t *testing.T) {
	const nTiles, tileRows, bad = 40, 1024, 5
	mem, cfg := fetchTestStore(t, nTiles, tileRows, 8)
	built, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	file := built.segs[0].file
	tm := built.segs[0].r.Tile(bad)
	ref := tm.Columns[tm.ColumnsForPath(idAccess[0].PathEnc)[0]].Block
	built.Close()
	size, err := mem.Size(file)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mem.ReadRange(file, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	raw = append([]byte(nil), raw...)
	raw[ref.Off] ^= 0xFF
	if err := mem.Put(file, raw); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		local, err := OpenDirStore("t", mem, nil, cfg, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := OpenDirStore("t", blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: time.Millisecond}), nil, cfg, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, dt := range []*DirTable{local, remote} {
			label := fmt.Sprintf("%s workers=%d", []string{"local", "remote"}[i], workers)
			var st obs.ScanStats
			var rows atomic.Int64
			dt.ScanBatches(context.Background(), idAccess, workers, func(_ int, b *vec.Batch) { rows.Add(int64(b.Rows())) }, &st)
			if err := st.Err(); !errors.Is(err, segment.ErrCorrupt) {
				t.Errorf("%s: sink error %v, want a corrupt block", label, err)
			}
			if n := rows.Load(); n > (nTiles-1)*tileRows {
				t.Errorf("%s: %d rows emitted, want at most %d (the faulting tile emits none)", label, n, (nTiles-1)*tileRows)
			}
			c := st.Counts()
			if workers == 1 && (c.TilesScanned != bad+1 || c.StorePrefetchHits == 0) {
				t.Errorf("%s: %d tiles scanned, %d prefetch hits; want %d, and the window ahead of the fault",
					label, c.TilesScanned, c.StorePrefetchHits, bad+1)
			}
			if err := dt.Err(); !errors.Is(err, segment.ErrCorrupt) {
				t.Errorf("%s: DirTable.Err = %v, want the scan's error", label, err)
			}
		}
		local.Close()
		remote.Close()
	}
}
