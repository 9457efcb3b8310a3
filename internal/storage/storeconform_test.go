package storage

// Storage/compute-separation conformance: the same segments answer
// byte-identical query results whether they live on the local
// filesystem, in memory, or behind the latency/failure-injecting
// object-store fake — on the row and batch paths, serial and parallel,
// across mid-scan compaction, and under injected transient failures.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/obs"
)

// storeConformTable builds the same multi-segment table on a store.
func storeConformTable(t *testing.T, store blockstore.Store, batches, rows int) *DirTable {
	t.Helper()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	dt, err := OpenDirStore("t", store, nil, cfg, 4, false)
	if err != nil {
		t.Fatalf("OpenDirStore(%s): %v", store.Label(), err)
	}
	for b := 0; b < batches; b++ {
		tiles, st := dirTestBatch(t, dirTestLines(b, rows))
		if err := dt.AppendTiles(tiles, st, 2); err != nil {
			t.Fatalf("AppendTiles(%s, 2) %d: %v", store.Label(), b, err)
		}
	}
	return dt
}

func TestStoreConformanceAcrossBackends(t *testing.T) {
	const batches, rows = 4, 48
	// Ground truth from the in-memory relation over the same lines.
	var all []string
	for b := 0; b < batches; b++ {
		all = append(all, dirTestLines(b, rows)...)
	}
	raw := make([][]byte, len(all))
	for i, l := range all {
		raw[i] = []byte(l)
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	mem, err := BuildTilesFromLines("mem", raw, cfg, 2)
	if err != nil {
		t.Fatalf("BuildTilesFromLines: %v", err)
	}
	accesses := dirTestAccesses()

	fsStore, err := blockstore.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fsStore.Close()
	fake := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{Latency: 100 * time.Microsecond})
	flaky := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{})
	// Each backend is written through one view and read back through
	// another: the flaky one fails every third range read of a scan.
	stores := []struct{ write, read blockstore.Store }{
		{fsStore, fsStore},
		{fake, fake},
		{flaky, blockstore.NewFakeS3(flaky.Inner(), blockstore.FakeS3Config{FailEveryN: 3})},
	}
	memStore := blockstore.NewMem()
	stores = append(stores, struct{ write, read blockstore.Store }{memStore, memStore})

	for _, store := range stores {
		dt := storeConformTable(t, store.write, batches, rows)
		if err := dt.Close(); err != nil {
			t.Fatalf("%s: Close: %v", store.write.Label(), err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("%s workers=%d", store.read.Label(), workers)
			want := rowMultiset(mem, accesses, workers)
			wantBatch := batchMultiset(mem.(BatchScanner), accesses, workers)
			// The store outlives the table: every reopen serves the
			// same committed generation (read-after-commit visibility)
			// from a cold pool.
			dt, err := OpenDirStore("t", store.read, nil, cfg, 4, false)
			if err != nil {
				t.Fatalf("reopen %s: %v", label, err)
			}
			sameMultiset(t, label+" rows", rowMultiset(dt, accesses, workers), want)
			dt.Close()
			if dt, err = OpenDirStore("t", store.read, nil, cfg, 4, false); err != nil {
				t.Fatalf("reopen %s: %v", label, err)
			}
			sameMultiset(t, label+" batches", batchMultiset(dt, accesses, workers), wantBatch)
			if err := dt.Err(); err != nil {
				t.Fatalf("%s: Err: %v", label, err)
			}
			if err := dt.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
		}
	}
}

// TestStoreConformanceMidScanCompaction compacts the table while a
// scan over the pre-compaction generation is mid-flight: the scan's
// pinned segments stay readable (and are deleted only at the last
// release), so the result multiset is unaffected.
func TestStoreConformanceMidScanCompaction(t *testing.T) {
	const batches, rows = 6, 48
	for _, workers := range []int{1, 3} {
		fake := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{})
		dt := storeConformTable(t, fake, batches, rows)
		accesses := dirTestAccesses()
		want := scanMultiset(dt, accesses)
		// Reopen, so the scan under test starts from a cold pool.
		dt.Close()
		cfg := DefaultLoaderConfig()
		cfg.Tile.TileSize = 16
		dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
		if err != nil {
			t.Fatal(err)
		}

		got := map[string]int{}
		var mu sync.Mutex
		var once sync.Once
		dt.ScanWithStats(context.Background(), accesses, workers, func(w int, row []expr.Value) {
			once.Do(func() {
				// Mid-scan: fold the segments this very scan is reading.
				if rounds, err := dt.Compact(); err != nil || rounds == 0 {
					t.Errorf("mid-scan Compact = %d rounds, %v", rounds, err)
				}
			})
			key := ""
			for _, v := range row {
				key += v.String() + "|"
			}
			mu.Lock()
			got[key]++
			mu.Unlock()
		}, nil)
		sameMultiset(t, "mid-scan compaction", got, map[string]int(want))
		if err := dt.Err(); err != nil {
			t.Fatalf("Err: %v", err)
		}
		if dt.NumSegments() >= batches {
			t.Fatalf("NumSegments = %d after compaction, want < %d", dt.NumSegments(), batches)
		}
		sameMultiset(t, "post-compaction", scanMultiset(dt, accesses), want)
		dt.Close()
	}
}

// TestStoreConformanceTransientFailures scans through a store that
// fails every few range reads with transient errors: the retry layer
// absorbs them (no wrong answers, no degraded-scan errors) and the
// retries surface in the per-scan statistics.
func TestStoreConformanceTransientFailures(t *testing.T) {
	const batches, rows = 3, 48
	clean := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{})
	dt := storeConformTable(t, clean, batches, rows)
	accesses := dirTestAccesses()
	want := scanMultiset(dt, accesses)
	dt.Close()

	// Same bytes behind a failing fake: every 4th range read errors.
	failing := blockstore.NewFakeS3(clean.Inner(), blockstore.FakeS3Config{FailEveryN: 4})
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16

	for _, workers := range []int{1, 4} {
		// A fresh open per round keeps the buffer pool cold, so every
		// round actually exercises the failing read path.
		dt2, err := OpenDirStore("t", failing, nil, cfg, 4, false)
		if err != nil {
			t.Fatalf("OpenDirStore(failing): %v", err)
		}
		var st obs.ScanStats
		got := map[string]int{}
		var mu sync.Mutex
		dt2.ScanWithStats(context.Background(), accesses, workers, func(w int, row []expr.Value) {
			key := ""
			for _, v := range row {
				key += v.String() + "|"
			}
			mu.Lock()
			got[key]++
			mu.Unlock()
		}, &st)
		sameMultiset(t, "with transient failures", got, want)
		if err := dt2.Err(); err != nil {
			t.Fatalf("workers=%d: scan degraded despite retries: %v", workers, err)
		}
		if st.Counts().StoreRetries == 0 {
			t.Errorf("workers=%d: no retries recorded under FailEveryN=4", workers)
		}
		if st.Counts().StoreRangeReads <= st.Counts().StoreRetries {
			t.Errorf("workers=%d: range reads %d not above retries %d",
				workers, st.Counts().StoreRangeReads, st.Counts().StoreRetries)
		}
		if err := dt2.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
	}
	if failing.InjectedFailures() == 0 {
		t.Error("fake injected no failures")
	}
}
