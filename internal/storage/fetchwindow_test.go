package storage

// The scan-wide fetch window: request shapes through the counting fake
// (what is read, how often, in how many round trips), behaviour under
// pool pressure, and accounting. Cancellation is in ctxcancel_test.go.

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/vec"
)

// fetchTestLines makes n documents whose binary JSON is dominated by a
// pad string of about pad bytes that LZ4 cannot fold away entirely.
func fetchTestLines(n, pad int) []string {
	lines := make([]string, n)
	for i := range lines {
		p := ""
		for len(p) < pad {
			p += fmt.Sprintf("%x-", (i+1)*2654435761+len(p)*40503)
		}
		lines[i] = fmt.Sprintf(`{"id":%d,"k":%d,"pad":%q}`, i, i%7, p)
	}
	return lines
}

// fetchTestStore writes one segment of nTiles tiles of tileRows
// documents each to a fresh in-memory store.
func fetchTestStore(t *testing.T, nTiles, tileRows, pad int) (blockstore.Store, LoaderConfig) {
	t.Helper()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = tileRows
	cfg.Reorder = false
	lines := fetchTestLines(nTiles*tileRows, pad)
	raw := make([][]byte, len(lines))
	for i, l := range lines {
		raw[i] = []byte(l)
	}
	docs, err := parseAll(raw, 2)
	if err != nil {
		t.Fatalf("parseAll: %v", err)
	}
	rel := BuildTiles("t", docs, cfg, 2, nil)
	mem := blockstore.NewMem()
	dt, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatalf("OpenDirStore: %v", err)
	}
	if err := dt.AppendTiles(rel.(TileIntrospector).Tiles(), rel.Stats()); err != nil {
		t.Fatalf("AppendTiles: %v", err)
	}
	if got := dt.NumTiles(); got != nTiles {
		t.Fatalf("built %d tiles, want %d", got, nTiles)
	}
	dt.Close()
	return mem, cfg
}

var (
	idAccess  = []Access{NewAccessPath(expr.TBigInt, keypath.NewPath("id"))}
	padAccess = []Access{NewAccessPath(expr.TJSON, keypath.NewPath("pad")), NewAccessPath(expr.TBigInt, keypath.NewPath("id"))}
)

func TestFetchOrder(t *testing.T) {
	whole := func(lo, hi int) morsel { return morsel{tileLo: lo, tileHi: hi, rowHi: -1} }
	split := func(ti, lo, hi int) morsel { return morsel{tileLo: ti, tileHi: ti + 1, rowLo: lo, rowHi: hi} }
	for _, tc := range []struct {
		morsels []morsel
		workers int
		want    []int
	}{
		{[]morsel{whole(0, 1), whole(1, 2), whole(2, 3)}, 2, []int{0, 1, 2}},
		{[]morsel{whole(0, 3), whole(3, 5), whole(5, 6)}, 2, []int{0, 3, 1, 4, 2, 5}},
		{[]morsel{whole(0, 3), whole(3, 5), whole(5, 6)}, 1, []int{0, 1, 2, 3, 4, 5}},
		{[]morsel{split(0, 0, 10), split(0, 10, 20), whole(1, 3)}, 2, []int{0, 0, 1, 2}},
	} {
		if got := fetchOrder(tc.morsels, tc.workers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("fetchOrder(%v, %d) = %v, want %v", tc.morsels, tc.workers, got, tc.want)
		}
	}
}

// TestFetchWindowRowSplitReadsOnce: a tile cut into k row-range
// morsels is fetched once, however many workers hold a piece of it.
// Before the window, every sub-morsel ran its own pre-scan fetch, and
// two workers arriving together both issued the same ranged reads.
func TestFetchWindowRowSplitReadsOnce(t *testing.T) {
	mem, cfg := fetchTestStore(t, 1, 2048, 40)
	cfg.MorselRows = 256 // 8 sub-morsels of the one tile
	for _, prefetch := range []bool{true, false} {
		cfg.StorePrefetch = prefetch
		var want int64
		for _, workers := range []int{1, 2, 8} {
			fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 2 * time.Millisecond})
			dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			before := fake.RangeReadCount()
			var rows atomic.Int64
			dt.ScanWithStats(context.Background(), padAccess, workers, func(int, []expr.Value) { rows.Add(1) }, nil)
			reads := fake.RangeReadCount() - before
			if err := dt.Err(); err != nil || rows.Load() != 2048 {
				t.Fatalf("prefetch=%v workers=%d: %d rows, err %v", prefetch, workers, rows.Load(), err)
			}
			dt.Close()
			if workers == 1 {
				want = reads
			} else if reads != want {
				t.Errorf("prefetch=%v workers=%d: %d range reads, want %d (one per planned run)", prefetch, workers, reads, want)
			}
		}
	}
}

// TestFetchWindowOneRoundTrip: a column-only scan plans a few KiB per
// tile, so the whole scan fits the window and costs one round trip;
// with StorePrefetch off each worker pays one per tile.
func TestFetchWindowOneRoundTrip(t *testing.T) {
	const latency = 20 * time.Millisecond
	mem, cfg := fetchTestStore(t, 8, 64, 40)
	scan := func(prefetch bool) (time.Duration, int64) {
		cfg.StorePrefetch = prefetch
		fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
		dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		defer dt.Close()
		before := fake.RangeReadCount()
		var rows atomic.Int64
		start := time.Now()
		dt.ScanBatches(context.Background(), idAccess, 2, func(_ int, b *vec.Batch) { rows.Add(int64(b.Len)) }, nil)
		d := time.Since(start)
		if err := dt.Err(); err != nil || rows.Load() != 8*64 {
			t.Fatalf("prefetch=%v: %d rows, err %v", prefetch, rows.Load(), err)
		}
		return d, fake.RangeReadCount() - before
	}
	on, onReads := scan(true)
	off, offReads := scan(false)
	if onReads != 8 || offReads != 8 {
		t.Errorf("range reads on/off = %d/%d, want 8/8 (one per tile)", onReads, offReads)
	}
	if on >= 3*latency {
		t.Errorf("scan with the window took %v, want < %v", on, 3*latency)
	}
	if off < 4*latency {
		t.Errorf("scan without the window took %v, want >= %v", off, 4*latency)
	}
}

// TestOpenDirStoreThreeRoundTrips: manifest Size beside List, manifest
// read, then every segment's tail window (and header magic) at once —
// whatever the segment count.
func TestOpenDirStoreThreeRoundTrips(t *testing.T) {
	const latency, segs = 20 * time.Millisecond, 6
	mem := blockstore.NewMem()
	dt := storeConformTable(t, mem, segs, 48)
	dt.Close()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
	start := time.Now()
	dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
	d := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if dt.NumSegments() != segs {
		t.Fatalf("NumSegments = %d, want %d", dt.NumSegments(), segs)
	}
	// Size + read of the manifest, one List, one tail window per (small)
	// segment; no per-segment Size probe.
	if got, want := fake.Requests(), int64(3+segs); got != want {
		t.Errorf("open issued %d requests, want %d", got, want)
	}
	if d >= 5*latency {
		t.Errorf("open took %v, want < %v (three round trips)", d, 5*latency)
	}
}

// TestFetchWindowPoolPressure: on pools far smaller than the scan —
// 1 MiB, and one smaller than a single tile's need — the window makes
// progress and never reads more than fetching at claim time does.
func TestFetchWindowPoolPressure(t *testing.T) {
	mem, cfg := fetchTestStore(t, 6, 1024, 300) // ~350 KiB of documents per tile
	for _, poolBytes := range []int64{1 << 20, 128 << 10} {
		for _, workers := range []int{1, 2, 8} {
			var reads [2]int64
			var rows [2]map[string]int
			for i, prefetch := range []bool{false, true} {
				cfg.StorePrefetch = prefetch
				fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 200 * time.Microsecond})
				dt, err := OpenDirStore("t", fake, bufpool.New(poolBytes), cfg, 4, false)
				if err != nil {
					t.Fatal(err)
				}
				before := fake.RangeReadCount()
				rows[i] = batchMultiset(dt, padAccess, workers)
				reads[i] = fake.RangeReadCount() - before
				if err := dt.Err(); err != nil {
					t.Fatalf("pool=%d workers=%d prefetch=%v: %v", poolBytes, workers, prefetch, err)
				}
				if pinned := dt.Pool().Stats().PinnedBytes; pinned != 0 {
					t.Errorf("pool=%d workers=%d prefetch=%v: %d bytes still pinned", poolBytes, workers, prefetch, pinned)
				}
				dt.Close()
			}
			sameMultiset(t, fmt.Sprintf("pool=%d workers=%d", poolBytes, workers), rows[1], rows[0])
			if reads[1] > reads[0] {
				t.Errorf("pool=%d workers=%d: %d range reads with the window, %d without", poolBytes, workers, reads[1], reads[0])
			}
		}
	}
}

// TestFetchWindowAccounting: the per-scan statistics agree with what
// the store saw — the fetch goroutines' counters reach them exactly
// once — a block fetched ahead is one pool miss and one prefetch hit
// (never also a pool hit), and request totals do not depend on whether
// the window is on.
func TestFetchWindowAccounting(t *testing.T) {
	mem, cfg := fetchTestStore(t, 6, 256, 60)
	var sts [2]obs.ScanStats
	for i, prefetch := range []bool{false, true} {
		cfg.StorePrefetch = prefetch
		fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 200 * time.Microsecond})
		dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		reads0, bytes0 := fake.RangeReadCount(), fake.BytesRead()
		st := &sts[i]
		dt.ScanBatches(context.Background(), padAccess, 3, func(int, *vec.Batch) {}, st)
		if got, want := st.StoreRangeReads.Load(), fake.RangeReadCount()-reads0; got != want {
			t.Errorf("prefetch=%v: stats count %d range reads, the store %d", prefetch, got, want)
		}
		if got, want := st.StoreBytesRead.Load(), fake.BytesRead()-bytes0; got != want {
			t.Errorf("prefetch=%v: stats count %d bytes read, the store %d", prefetch, got, want)
		}
		if st.PoolMisses.Load() != st.BlocksRead.Load() || st.PoolHits.Load() != 0 {
			t.Errorf("prefetch=%v: cold scan of %d blocks counted %d misses, %d hits",
				prefetch, st.BlocksRead.Load(), st.PoolMisses.Load(), st.PoolHits.Load())
		}
		dt.Close()
	}
	off, on := &sts[0], &sts[1]
	if off.StorePrefetchHits.Load() != 0 {
		t.Errorf("prefetch off: %d prefetch hits", off.StorePrefetchHits.Load())
	}
	// Everything fits the default pool, so the window fetches every
	// tile ahead of its claim.
	if got, want := on.StorePrefetchHits.Load(), on.BlocksRead.Load(); got != want {
		t.Errorf("prefetch on: %d prefetch hits for %d blocks fetched", got, want)
	}
	if on.StoreRangeReads.Load() != off.StoreRangeReads.Load() || on.StoreCoalesced.Load() != off.StoreCoalesced.Load() {
		t.Errorf("range reads / coalesced on = %d/%d, off = %d/%d; want equal",
			on.StoreRangeReads.Load(), on.StoreCoalesced.Load(), off.StoreRangeReads.Load(), off.StoreCoalesced.Load())
	}
}
