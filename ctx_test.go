package jsontiles

// Per-query context tests: cancellation and deadlines propagate into
// the scan, cancelled queries release every buffer-pool pin (so
// compaction can still drop their segments), and tenant identity on
// the context flows into counters and the slow-query log.

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
)

func TestRunContextPreCancelled(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(500), opts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := obs.QueriesCancelled.Load()
	_, err = tbl.Query("data->>'stars'::BigInt").WhereCmp(0, Ge, 4).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext(cancelled) = %v, want context.Canceled", err)
	}
	if got := obs.QueriesCancelled.Load(); got != before+1 {
		t.Fatalf("queries_cancelled %d -> %d, want +1", before, got)
	}
}

func TestRunContextDeadlineExceeded(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(200), opts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = tbl.Query("data->>'review_id'").RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext(expired) = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunContextNilMatchesRun(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(300), opts())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Query {
		return tbl.Query("data->>'business'", "data->>'stars'::BigInt").
			GroupBy(0).Aggregate(CountAll("n"), Avg(1, "avg")).OrderBy(0, false)
	}
	want, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := mk().RunContext(nil) //nolint:staticcheck // nil must behave like Background
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("RunContext(nil) differs from Run:\n%s\nvs\n%s", got, want)
	}
}

// pool extracts the buffer pool behind a directory-backed table (the
// same assertion SetTenantQuota uses).
func poolOf(t *testing.T, tbl *Table) *bufpool.Pool {
	t.Helper()
	pp, ok := tbl.rel.(interface{ Pool() *bufpool.Pool })
	if !ok {
		t.Fatalf("table relation %T exposes no pool", tbl.rel)
	}
	return pp.Pool()
}

// TestCancelledDirQueryReleasesPinsAndCompacts: whatever moment the
// cancel lands — before the scan, mid-morsel, or after the last tile
// — a finished RunContext leaves zero pinned buffer-pool bytes, so
// compaction can rewrite and drop the segments it read.
func TestCancelledDirQueryReleasesPinsAndCompacts(t *testing.T) {
	const batches = 8
	dir := filepath.Join(t.TempDir(), "reviews")
	o := dirOpts()
	tbl, err := OpenDir("reviews", dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	all := reviewDocs(800)
	flushBatches(t, tbl, all, batches)
	pool := poolOf(t, tbl)

	// Deterministic case first: pre-cancelled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.Query("data->>'review_id'").RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: %v", err)
	}
	if st := pool.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pre-cancelled query left %d pinned bytes", st.PinnedBytes)
	}

	// Racy case: cancel while scans are (probably) in flight. The
	// invariant — no pins survive the query — holds for every
	// interleaving even when the cancel lands too late to matter.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		qctx, qcancel := context.WithCancel(context.Background())
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbl.Query("data->>'review_id'", "data->>'stars'::BigInt").
				WhereCmp(1, Ge, 1).RunContext(qctx)
		}()
		time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
		qcancel()
	}
	wg.Wait()
	if st := pool.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("cancelled queries left %d pinned bytes", st.PinnedBytes)
	}

	// Compaction proceeds: nothing the cancelled queries touched is
	// still pinned or refcounted.
	rounds, err := tbl.Compact()
	if err != nil {
		t.Fatalf("Compact after cancelled queries: %v", err)
	}
	if rounds == 0 {
		t.Fatal("Compact ran no rounds")
	}
	if got := tbl.NumSegments(); got >= batches {
		t.Fatalf("NumSegments = %d after compaction, want < %d", got, batches)
	}

	// And the table still answers correctly.
	mem, err := Load("reviews", all, opts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Query("data->>'stars'::BigInt").GroupBy(0).
		Aggregate(CountAll("n")).OrderBy(0, false).Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Query("data->>'stars'::BigInt").GroupBy(0).
		Aggregate(CountAll("n")).OrderBy(0, false).
		RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("post-compaction results differ:\n%s\nvs\n%s", got, want)
	}
}

// TestCancelledQueriesLeakNoGoroutines: repeated cancelled queries
// must not strand scan helpers. The shared scheduler's workers are
// created once at init, so after a warm-up the goroutine count is
// steady state.
func TestCancelledQueriesLeakNoGoroutines(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(600), opts())
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: instantiate the shared pool's workers and any lazy
	// runtime goroutines.
	if _, err := tbl.Query("data->>'review_id'").Run(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tbl.Query("data->>'review_id'", "data->>'stars'::BigInt").RunContext(ctx)
	}
	// Helpers retire asynchronously; poll briefly before judging.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 || time.Now().After(deadline) {
			if n > base+2 {
				t.Fatalf("goroutines grew %d -> %d after 25 cancelled queries", base, n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTenantOnContextFlowsToCountersAndStats(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(400), opts())
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.Tenants.Get("ctx-test-tenant")
	q0, r0 := tc.Queries.Load(), tc.RowsReturned.Load()
	ctx := obs.WithTenant(context.Background(), "ctx-test-tenant")
	res, stats, err := tbl.Query("data->>'review_id'").RunAnalyzedContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tenant != "ctx-test-tenant" {
		t.Fatalf("stats.Tenant = %q", stats.Tenant)
	}
	if got := tc.Queries.Load(); got != q0+1 {
		t.Fatalf("tenant queries %d -> %d, want +1", q0, got)
	}
	if got := tc.RowsReturned.Load(); got != r0+int64(res.NumRows()) {
		t.Fatalf("tenant rows %d -> %d, want +%d", r0, got, res.NumRows())
	}
	// A cancelled tenanted query counts as cancelled for the tenant.
	c0 := tc.Cancelled.Load()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := tbl.Query("data->>'review_id'").RunContext(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if got := tc.Cancelled.Load(); got != c0+1 {
		t.Fatalf("tenant cancelled %d -> %d, want +1", c0, got)
	}
}

func TestSlowQueryLogCarriesTenant(t *testing.T) {
	log := captureSlowLog(t)
	o := opts()
	o.SlowQueryThreshold = time.Nanosecond // everything is slow
	tbl, err := Load("reviews", reviewDocs(100), o)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithTenant(context.Background(), "acme")
	if _, err := tbl.Query("data->>'review_id'").RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(log.String())
	var rec SlowQueryRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("unmarshal slow-query line: %v\n%s", err, line)
	}
	if rec.Tenant != "acme" {
		t.Fatalf("slow-query tenant = %q, want acme\n%s", rec.Tenant, line)
	}

	// Untenanted queries omit the field entirely, so lines written by
	// older versions (no tenant key) and new direct-library lines are
	// the same shape.
	log.Reset()
	if _, err := tbl.Query("data->>'review_id'").Run(); err != nil {
		t.Fatal(err)
	}
	plain := strings.TrimSpace(log.String())
	if strings.Contains(plain, `"tenant"`) {
		t.Fatalf("untenanted line carries a tenant field:\n%s", plain)
	}
	var old SlowQueryRecord
	if err := json.Unmarshal([]byte(plain), &old); err != nil {
		t.Fatalf("old-shape line unreadable: %v", err)
	}
	if old.Tenant != "" {
		t.Fatalf("old-shape tenant = %q, want empty", old.Tenant)
	}
}
