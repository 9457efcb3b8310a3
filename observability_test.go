package jsontiles

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
	"repro/internal/segment"
)

// syncBuffer is an io.Writer safe for the process-wide slow-query
// logger to share with test assertions.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.Reset()
}

// captureSlowLog routes slow-query lines, which go to stderr, into a
// buffer until the test ends.
func captureSlowLog(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	slowLogMu.Lock()
	prev := slowLog
	slowLog = buf
	slowLogMu.Unlock()
	t.Cleanup(func() {
		slowLogMu.Lock()
		slowLog = prev
		slowLogMu.Unlock()
	})
	return buf
}

func TestQueryStatsCarryIDAndDigest(t *testing.T) {
	tbl, err := Load("logs", mixedDocs(512), opts())
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Query {
		return tbl.Query("data->>'status'::BigInt").WhereNotNull(0)
	}
	_, s1, err := build().RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := build().RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	if s1.QueryID == 0 || s2.QueryID == s1.QueryID {
		t.Fatalf("query ids = %d, %d: want distinct nonzero", s1.QueryID, s2.QueryID)
	}
	if len(s1.PlanDigest) != 16 {
		t.Fatalf("plan digest = %q, want 16 hex chars", s1.PlanDigest)
	}
	if s1.PlanDigest != s2.PlanDigest {
		t.Fatalf("same query template, digests %q vs %q", s1.PlanDigest, s2.PlanDigest)
	}
	_, s3, err := tbl.Query("data->>'kind'").GroupBy(0).Aggregate(CountAll("n")).RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	if s3.PlanDigest == s1.PlanDigest {
		t.Fatalf("different plans share digest %q", s3.PlanDigest)
	}
}

func TestSlowQueryLogEmitsOneLine(t *testing.T) {
	o := opts()
	log := captureSlowLog(t)
	o.SlowQueryThreshold = time.Nanosecond // everything is slow
	tbl, err := Load("logs", mixedDocs(1024), o)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tbl.Query("data->>'status'::BigInt").
		WhereNotNull(0).
		GroupBy(0).
		Aggregate(CountAll("n")).
		Run()
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow query produced %d lines, want 1: %q", len(lines), log.String())
	}
	var rec SlowQueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-query line is not valid JSON: %v\n%s", err, lines[0])
	}
	if rec.QueryID == 0 || len(rec.PlanDigest) != 16 {
		t.Fatalf("record lacks identity: %+v", rec)
	}
	if rec.WallMS <= 0 || rec.ExecMS <= 0 {
		t.Fatalf("record lacks timings: %+v", rec)
	}
	if len(rec.TopOperators) == 0 || len(rec.TopOperators) > 3 {
		t.Fatalf("top operators = %d, want 1..3: %+v", len(rec.TopOperators), rec.TopOperators)
	}
	for i := 1; i < len(rec.TopOperators); i++ {
		if rec.TopOperators[i].WallMS > rec.TopOperators[i-1].WallMS {
			t.Fatalf("top operators not sorted by wall time: %+v", rec.TopOperators)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, rec.Time); err != nil {
		t.Fatalf("bad timestamp %q: %v", rec.Time, err)
	}

	// A fast query (threshold far away) logs nothing.
	fast := opts()
	fast.SlowQueryThreshold = time.Hour
	log.Reset()
	tbl2, err := Load("logs2", mixedDocs(256), fast)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl2.Query("data->>'kind'").Run(); err != nil {
		t.Fatal(err)
	}
	if log.String() != "" {
		t.Fatalf("fast query logged: %q", log.String())
	}
}

// Zero-valued layout options (TileSize == 0) substitute the paper
// defaults but must keep caller-set runtime fields — a regression test
// for options being replaced wholesale, dropping the slow-query
// threshold.
func TestZeroLayoutOptionsKeepRuntimeFields(t *testing.T) {
	log := captureSlowLog(t)
	tbl := New("t", Options{SlowQueryThreshold: time.Nanosecond})
	for i := 0; i < 50; i++ {
		if err := tbl.Insert([]byte(fmt.Sprintf(`{"v": %d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Query("data->>'v'::BigInt").Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(log.String(), "\n"); got != 1 {
		t.Fatalf("slow-query lines = %d, want 1 (threshold dropped by defaulting?)", got)
	}
}

func TestSlowQueryThresholdFromJoinedTable(t *testing.T) {
	users, err := Load("users", usersDocs(20), opts())
	if err != nil {
		t.Fatal(err)
	}
	slow := opts()
	log := captureSlowLog(t)
	slow.SlowQueryThreshold = time.Nanosecond
	orders, err := Load("orders", ordersDocs(200), slow)
	if err != nil {
		t.Fatal(err)
	}
	_, err = users.Query("data->>'uid'").
		Join(orders, []string{"data->>'user'"}, 0, 0).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "plan_digest") {
		t.Fatalf("threshold on joined table produced no log line: %q", log.String())
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	tbl, err := Load("logs", mixedDocs(1024), opts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Query("data->>'status'::BigInt").WhereNotNull(0).Run(); err != nil {
		t.Fatal(err)
	}

	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The server is process-wide: a second call returns the same addr.
	again, err := ServeDebug("127.0.0.1:0")
	if err != nil || again != addr {
		t.Fatalf("second ServeDebug = %q, %v; want %q", again, err, addr)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE queries_run counter",
		"# TYPE rows_boxed counter",
		"# TYPE bufpool_bytes gauge",
		"# TYPE query_wall_seconds histogram",
		"query_wall_seconds_bucket{le=\"+Inf\"}",
		"query_wall_seconds_sum",
		"query_wall_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	queries := get("/debug/queries")
	var live []obs.QueryProgress
	if err := json.Unmarshal([]byte(queries), &live); err != nil {
		t.Fatalf("/debug/queries is not a JSON array: %v\n%s", err, queries)
	}

	trace := get("/debug/trace?last=4")
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &parsed); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v\n%s", err, trace)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatalf("/debug/trace has no events after a query:\n%s", trace)
	}

	if resp, err := http.Get("http://" + addr + "/debug/trace?last=bogus"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bogus ?last= returned %d, want 400", resp.StatusCode)
		}
	}

	pprofIdx := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%.200s", pprofIdx)
	}
}

// The live-query registry must show a query with progress while it
// executes. A hook observes the registry mid-query: it runs after
// execution but the handle is only finished right before it — so
// instead we check from a second goroutine polling during a join
// query over enough rows to be observable.
func TestLiveQueriesVisibleDuringRun(t *testing.T) {
	tbl, err := Load("logs", mixedDocs(4096), opts())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	seen := make(chan obs.QueryProgress, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range obs.Queries.Live() {
				if p.Rows > 0 {
					select {
					case seen <- p:
					default:
					}
					return
				}
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for {
		if _, err := tbl.Query("data->>'status'::BigInt").WhereNotNull(0).Run(); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-seen:
			close(stop)
			if p.ID == 0 || p.Digest == "" {
				t.Fatalf("in-flight progress lacks identity: %+v", p)
			}
			if obs.Queries.NumLive() != 0 {
				t.Fatalf("queries still live after Run: %d", obs.Queries.NumLive())
			}
			return
		case <-deadline:
			close(stop)
			t.Skip("poller never caught a query in flight (machine too fast); covered by obs unit tests")
		default:
		}
	}
}

func TestMetricsSnapshotJSONRoundTrip(t *testing.T) {
	tbl, err := Load("logs", mixedDocs(512), opts())
	if err != nil {
		t.Fatal(err)
	}
	base := obs.Default.Snapshot()
	if _, err := tbl.Query("data->>'kind'").Run(); err != nil {
		t.Fatal(err)
	}
	diff := obs.Default.Snapshot().Diff(base)
	b, err := json.Marshal(diff)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Get("queries_run") != 1 {
		t.Fatalf("round-tripped queries_run = %d, want 1\n%s", back.Get("queries_run"), b)
	}
	if back.Hist("query_wall_seconds").Count != 1 {
		t.Fatalf("round-tripped wall histogram count = %d, want 1", back.Hist("query_wall_seconds").Count)
	}
}

// TestScanCountsMatchProcessSeries: every process-wide series a scan
// forwards moves by exactly the scan's own EXPLAIN ANALYZE figure, on a
// cold and on a warm run, and the tenant's scanned bytes by the scan's
// store bytes. kernel_dispatches is left out: the engine's filters
// count into it too.
func TestScanCountsMatchProcessSeries(t *testing.T) {
	mem := NewMemStore()
	tbl, err := OpenStore("notes", mem, dirOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A rare text key stays in the documents: reading it walks them,
	// and casting its text to BigInt fails. A three-valued text key is
	// dictionary-encoded: its IN filter runs in code space.
	all := make([][]byte, 1200)
	for i := range all {
		note := ""
		if i%10 == 3 { // stars 4: past the filter
			note = fmt.Sprintf(`,"note":"n%d"`, i)
		}
		all[i] = []byte(fmt.Sprintf(`{"id":%d,"stars":%d,"kind":"k%d"%s}`, i, 1+i%5, i%3, note))
	}
	flushBatches(t, tbl, all, 3)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{})
	tbl, err = OpenStore("notes", fake, dirOpts()) // fresh pool: the first run misses
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	series := []struct {
		name string
		scan func(*ScanStats) int64
	}{
		{"tiles_scanned", func(s *ScanStats) int64 { return s.TilesScanned }},
		{"tiles_skipped", func(s *ScanStats) int64 { return s.TilesSkipped }},
		{"rows_scanned", func(s *ScanStats) int64 { return s.RowsScanned }},
		{"column_hits", func(s *ScanStats) int64 { return s.ColumnHits }},
		{"jsonb_fallbacks", func(s *ScanStats) int64 { return s.JSONBFallbacks }},
		{"doc_walks", func(s *ScanStats) int64 { return s.DocWalks }},
		{"cast_errors", func(s *ScanStats) int64 { return s.CastErrors }},
		{"batches_emitted", func(s *ScanStats) int64 { return s.Batches }},
		{"rows_vectorized", func(s *ScanStats) int64 { return s.RowsVectorized }},
		{"rows_batch_fallback", func(s *ScanStats) int64 { return s.RowsFallback }},
		{"rows_narrowed", func(s *ScanStats) int64 { return s.RowsNarrowed }},
		{"segment_blocks_read", func(s *ScanStats) int64 { return s.PoolMisses }},
		{"segment_bytes_read", func(s *ScanStats) int64 { return s.StoreBytesRead }},
		{"bufpool_hits", func(s *ScanStats) int64 { return s.PoolHits }},
		{"bufpool_misses", func(s *ScanStats) int64 { return s.PoolMisses }},
		{"dict_kernel_shortcuts", func(s *ScanStats) int64 { return s.DictKernelShortcuts }},
	}
	const tenant = "scan-counts-tenant"
	ctx := obs.WithTenant(context.Background(), tenant)
	scanned := &obs.Tenants.Get(tenant).BytesScanned
	var total obs.ScanCounts
	for _, run := range []string{"cold", "warm"} {
		base, bytes0 := obs.Default.Snapshot(), scanned.Load()
		_, stats, err := tbl.Query("data->>'stars'::BigInt", "data->>'note'::BigInt", "data->>'kind'").
			WhereCmp(0, Ge, 3).WhereIn(2, "k0", "k2").RunAnalyzedContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		scan := scanNode(t, stats)
		d := obs.Default.Snapshot().Diff(base)
		for _, s := range series {
			if got, want := d.Get(s.name), s.scan(scan); got != want {
				t.Errorf("%s: %s moved by %d, the scan counts %d", run, s.name, got, want)
			}
		}
		if got := scanned.Load() - bytes0; got != scan.StoreBytesRead {
			t.Errorf("%s: tenant bytes scanned moved by %d, the scan read %d store bytes", run, got, scan.StoreBytesRead)
		}
		total.Add(&scan.ScanCounts)
	}
	if total.ColumnHits == 0 || total.PoolHits == 0 || total.PoolMisses == 0 || total.DocWalks == 0 ||
		total.JSONBFallbacks == 0 || total.CastErrors == 0 || total.RowsNarrowed == 0 || total.DictKernelShortcuts == 0 {
		t.Errorf("want every checked figure exercised, got %+v", total)
	}

	// A query that reads an unreadable block counts once as failed,
	// not as run, and once in its tenant's query total.
	loaded, err := Load("notes", all, opts())
	if err != nil {
		t.Fatal(err)
	}
	bad := corruptSegment(t, loaded, opts(), func(tm *segment.TileMeta) segment.BlockRef { return tm.Docs })
	queries := &obs.Tenants.Get(tenant).Queries
	base, queries0 := obs.Default.Snapshot(), queries.Load()
	if _, err := bad.Query("data->>'note'::BigInt").RunContext(ctx); !errors.Is(err, ErrUnreadable) {
		t.Fatalf("faulted query: %v, want ErrUnreadable", err)
	}
	d := obs.Default.Snapshot().Diff(base)
	if failed, run := d.Get("queries_failed"), d.Get("queries_run"); failed != 1 || run != 0 {
		t.Errorf("faulted query moved queries_failed by %d and queries_run by %d, want 1 and 0", failed, run)
	}
	if got := queries.Load() - queries0; got != 1 {
		t.Errorf("faulted query moved the tenant's queries by %d, want 1", got)
	}
}
