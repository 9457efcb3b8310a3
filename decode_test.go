package jsontiles

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// scanNode returns the scan statistics of an analyzed single-table plan.
func scanNode(t *testing.T, stats *QueryStats) *ScanStats {
	t.Helper()
	n := stats.Plan.Find("Scan")
	if n == nil || n.Scan == nil {
		t.Fatalf("no scan stats:\n%s", stats.Plan)
	}
	return n.Scan
}

// warmAllocBudget bounds what one warm run of the grouped query below
// may allocate over 1800 rows in 30 tiles. It measures about 44 KB
// (scan set-up, tile views, operator state, the 5-row result);
// re-decoding the scanned columns and document directories on every
// scan, as before blocks were decoded once per pool residency, took
// 148 KB.
const warmAllocBudget = 80 << 10

// TestWarmQueryDecodesNothing pins the warm path's work as a count:
// blocks are decoded once per buffer-pool residency, so the second
// identical query decodes none and allocates little, and after a
// compaction the first query decodes exactly the blocks of the new
// segment it touches.
func TestWarmQueryDecodesNothing(t *testing.T) {
	o := opts()
	o.Workers = 1
	o.CompactFanIn = -1
	tbl, err := OpenStore("reviews", NewMemStore(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	// A third of the documents are of another type: their tiles mix
	// both, so the scan reads fallback documents as well as columns.
	var all [][]byte
	for i, d := range reviewDocs(1200) {
		all = append(all, d)
		if i%2 == 0 {
			all = append(all, []byte(fmt.Sprintf(`{"user":"u%03d","stars":%d,"fans":%d}`, i, 1+i%5, i%9)))
		}
	}
	flushBatches(t, tbl, all, 3)

	grouped := func() *Query {
		return tbl.Query("data->>'stars'::BigInt", "data->>'useful'::BigInt", "data->>'fans'::BigInt").
			WhereCmp(0, Ge, 2).GroupBy(0).Aggregate(CountAll("n"), Sum(1, "useful"), Sum(2, "fans"))
	}
	first, stats, err := grouped().RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	cold := scanNode(t, stats)
	if cold.BlocksDecoded == 0 || cold.JSONBFallbacks == 0 {
		t.Fatalf("cold query: decoded=%d fallbacks=%d; want both above 0\n%s", cold.BlocksDecoded, cold.JSONBFallbacks, stats.Plan)
	}

	base := obs.SegmentBlocksDecoded.Load()
	second, stats, err := grouped().RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	warm := scanNode(t, stats)
	if warm.BlocksDecoded != 0 || obs.SegmentBlocksDecoded.Load() != base {
		t.Errorf("warm query decoded %d blocks (process-wide +%d), want 0\n%s",
			warm.BlocksDecoded, obs.SegmentBlocksDecoded.Load()-base, stats.Plan)
	}
	if warm.PoolMisses != 0 || warm.PoolHits != cold.PoolMisses {
		t.Errorf("warm query: pool %d hit/%d miss, want the %d blocks the cold query read all hits",
			warm.PoolHits, warm.PoolMisses, cold.PoolMisses)
	}
	if first.String() != second.String() {
		t.Errorf("cold and warm answers differ:\n%s\n%s", first, second)
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := grouped().Run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > warmAllocBudget {
		t.Errorf("a warm run allocates %d bytes, budget %d", perRun, warmAllocBudget)
	}

	// Compaction merges four of the six segments into a new one; the
	// other two stay. The merged segments' decoded blocks leave the pool
	// with them, and the first query afterwards decodes exactly the
	// blocks it reads of the new segment — each once — while the
	// survivors' columns are still served decoded.
	numeric := func() *ScanStats {
		_, stats, err := tbl.Query("data->>'stars'::BigInt", "data->>'useful'::BigInt").WhereNotNull(1).RunAnalyzed()
		if err != nil {
			t.Fatal(err)
		}
		return scanNode(t, stats)
	}
	before6 := numeric()
	if merged, err := tbl.Compact(); err != nil || merged != 1 {
		t.Fatalf("Compact = %d, %v; want one merge round", merged, err)
	}
	fresh := numeric()
	if fresh.PoolMisses == 0 || fresh.BlocksDecoded != fresh.PoolMisses || fresh.PoolHits == 0 ||
		fresh.PoolHits+fresh.PoolMisses != before6.PoolHits {
		t.Errorf("first query after Compact: decoded=%d, blocks read=%d, pool %d hit/%d miss; want decoded = read, and the %d blocks of a warm scan split between them",
			fresh.BlocksDecoded, fresh.PoolMisses, fresh.PoolHits, fresh.PoolMisses, before6.PoolHits)
	}
	if again := numeric(); again.BlocksDecoded != 0 || again.PoolMisses != 0 {
		t.Errorf("second query after Compact: decoded=%d, %d pool misses; want 0", again.BlocksDecoded, again.PoolMisses)
	}
}
