package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	jsontiles "repro"
	"repro/internal/bufpool"
	"repro/internal/keypath"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/segment"
)

// testDocs builds n small review documents.
func testDocs(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte(fmt.Sprintf(
			`{"review_id":"r%04d","business":"b%02d","stars":%d,"useful":%d}`,
			i, i%10, 1+i%5, i%50)))
	}
	return out
}

func testOpts() jsontiles.Options {
	o := jsontiles.DefaultOptions()
	o.TileSize = 64
	o.Workers = 2
	return o
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *jsontiles.Table) {
	t.Helper()
	tbl, err := jsontiles.Load("reviews", testDocs(400), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	s.Register("reviews", tbl)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, tbl
}

// postQuery sends an envelope and returns status, headers, and body.
func postQuery(t *testing.T, url string, tenant string, env string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-JT-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.String()
}

// ndjsonRows splits an NDJSON response into header, data rows, and
// trailer.
func ndjsonRows(t *testing.T, body string) (header, trailer string, rows []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON response too short:\n%s", body)
	}
	return lines[0], lines[len(lines)-1], lines[1 : len(lines)-1]
}

// libraryRows renders a direct library result the way streamResult
// does, for byte-identical comparison.
func libraryRows(t *testing.T, res *jsontiles.Result) []string {
	t.Helper()
	out := make([]string, res.NumRows())
	for i := range out {
		row := res.Row(i)
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = v.Any()
		}
		b, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func TestQueryEndpointMatchesLibrary(t *testing.T) {
	_, ts, tbl := newTestServer(t, Config{})
	status, _, body := postQuery(t, ts.URL, "", `{
		"table": "reviews",
		"select": ["data->>'stars'::BigInt", "data->>'useful'::BigInt"],
		"where":  [{"col": 0, "op": ">=", "value": 2}],
		"group_by": [0],
		"aggs": [{"fn": "count", "name": "n"}, {"fn": "sum", "col": 1, "name": "u"}],
		"order_by": [{"col": 0}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("status %d:\n%s", status, body)
	}
	header, trailer, rows := ndjsonRows(t, body)
	if !strings.Contains(header, `"columns"`) {
		t.Fatalf("bad header line: %s", header)
	}
	var tr struct {
		Rows   int     `json:"rows"`
		WallMS float64 `json:"wall_ms"`
	}
	if err := json.Unmarshal([]byte(trailer), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", trailer, err)
	}
	if tr.Rows != len(rows) {
		t.Fatalf("trailer rows %d, body rows %d", tr.Rows, len(rows))
	}

	res, err := tbl.Query("data->>'stars'::BigInt", "data->>'useful'::BigInt").
		WhereCmp(0, jsontiles.Ge, 2).GroupBy(0).
		Aggregate(jsontiles.CountAll("n"), jsontiles.Sum(1, "u")).
		OrderBy(0, false).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := libraryRows(t, res)
	if len(rows) != len(want) {
		t.Fatalf("HTTP returned %d rows, library %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d differs:\nhttp:    %s\nlibrary: %s", i, rows[i], want[i])
		}
	}
}

// TestAnalyzeKeepsPlanDigest: one envelope posted with and without
// "analyze" runs one plan, so both leave the same digest in the trace
// ring; the flag changes only the trailer.
func TestAnalyzeKeepsPlanDigest(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	const env = `{"table":"reviews","select":["data->>'stars'::BigInt"],
		"where":[{"col":0,"op":">=","value":2}],"group_by":[0],
		"aggs":[{"fn":"count","name":"n"}],"order_by":[{"col":0}],"limit":3%s}`
	var digests []string
	for _, extra := range []string{``, `,"analyze":true`} {
		status, _, body := postQuery(t, ts.URL, "", fmt.Sprintf(env, extra))
		if status != http.StatusOK {
			t.Fatalf("status %d:\n%s", status, body)
		}
		_, trailer, _ := ndjsonRows(t, body)
		if got, want := strings.Contains(trailer, `"plan"`), extra != ""; got != want {
			t.Fatalf("analyze=%v, trailer carries a plan: %v\n%s", want, got, trailer)
		}
		digests = append(digests, obs.Traces.Last(1)[0].Digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("plain run digest %q, analyzed run digest %q", digests[0], digests[1])
	}
}

// TestOrderedQueriesBoxNoRows: a served ORDER BY, with or without a
// LIMIT and over scanned or grouped rows, is sorted and encoded from
// column vectors; no row is boxed.
func TestOrderedQueriesBoxNoRows(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, env := range []string{
		`{"table":"reviews","select":["data->>'business'","data->>'useful'::BigInt"],"order_by":[{"col":1,"desc":true},{"col":0}]}`,
		`{"table":"reviews","select":["data->>'business'","data->>'useful'::BigInt"],"order_by":[{"col":1,"desc":true}],"limit":7}`,
		`{"table":"reviews","select":["data->>'business'"],"group_by":[0],"aggs":[{"fn":"count","name":"n"}],"order_by":[{"col":1}],"limit":3}`,
	} {
		base := obs.RowsBoxed.Load()
		status, _, body := postQuery(t, ts.URL, "", env)
		if status != http.StatusOK {
			t.Fatalf("status %d:\n%s", status, body)
		}
		if boxed := obs.RowsBoxed.Load() - base; boxed != 0 {
			t.Errorf("%s: %d rows boxed, want 0", env, boxed)
		}
	}
}

// TestNonFiniteFloatsAreServed: NaN and ±Inf cells reach the client
// as the strings PostgreSQL's to_json gives them, every row streamed
// and counted, and the library's Value.Any agrees.
func TestNonFiniteFloatsAreServed(t *testing.T) {
	docs := [][]byte{[]byte(`{"x":"NaN"}`), []byte(`{"x":"1.5"}`), []byte(`{"x":"Inf"}`), []byte(`{"x":"-Inf"}`)}
	tbl, err := jsontiles.Load("floats", docs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.Register("floats", tbl)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, body := postQuery(t, ts.URL, "", `{"table": "floats", "select": ["data->>'x'::Float"]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d:\n%s", status, body)
	}
	_, trailer, rows := ndjsonRows(t, body)
	want := []string{`["-Infinity"]`, `[1.5]`, `["Infinity"]`, `["NaN"]`}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") || !strings.HasPrefix(trailer, `{"rows":4,`) {
		t.Fatalf("rows %q, trailer %s; want rows %q and a trailer counting 4", rows, trailer, want)
	}
	res, err := tbl.Query("data->>'x'::Float").Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := libraryRows(t, res); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("library rows %q, want %q", got, want)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	// One byte past the 1 MiB body cap, inside a select string so the
	// decoder must read all of it.
	head, tail := `{"table": "reviews", "select": ["`, `"]}`
	oversized := head + strings.Repeat("x", 1<<20+1-len(head)-len(tail)) + tail
	cases := []struct {
		name, env string
		status    int
	}{
		{"missing table", `{"select": ["data->>'x'"]}`, http.StatusBadRequest},
		{"missing select", `{"table": "reviews"}`, http.StatusBadRequest},
		{"unknown table", `{"table": "nope", "select": ["data->>'x'"]}`, http.StatusNotFound},
		{"unknown field", `{"table": "reviews", "select": ["data->>'x'"], "wat": 1}`, http.StatusBadRequest},
		{"unknown op", `{"table": "reviews", "select": ["data->>'x'"], "where": [{"col": 0, "op": "~="}]}`, http.StatusBadRequest},
		{"like non-string", `{"table": "reviews", "select": ["data->>'x'"], "where": [{"col": 0, "op": "like", "value": 3}]}`, http.StatusBadRequest},
		{"group without aggs", `{"table": "reviews", "select": ["data->>'x'"], "group_by": [0]}`, http.StatusBadRequest},
		{"bad column index", `{"table": "reviews", "select": ["data->>'x'"], "where": [{"col": 9, "op": "not_null"}]}`, http.StatusBadRequest},
		{"negative limit", `{"table": "reviews", "select": ["data->>'stars'"], "limit": -1}`, http.StatusBadRequest},
		{"trailing value", `{"table": "reviews", "select": ["data->>'stars'"], "limit": 1} {"table": "nope"}`, http.StatusBadRequest},
		{"trailing garbage", `{"table": "reviews", "select": ["data->>'stars'"], "limit": 1} garbage`, http.StatusBadRequest},
		{"body over 1 MiB", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		status, _, body := postQuery(t, ts.URL, "", c.env)
		if status != c.status {
			t.Errorf("%s: status %d, want %d (%.200s)", c.name, status, c.status, strings.TrimSpace(body))
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error body missing: %s", c.name, body)
		}
	}
	// GET is not a query.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}
}

// TestUnreadableBlockAnswers500: a query that reads a block failing
// its checksum, a column or the documents, answers 500 with no row
// lines, and a clean table on the same server still answers 200.
func TestUnreadableBlockAnswers500(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	mem, err := jsontiles.Load("bad", testDocs(400), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	stars := keypath.NewPath("stars").Encode()
	for _, c := range []struct {
		name, sel string
		pick      func(*segment.TileMeta) segment.BlockRef
	}{
		{"column", "data->>'stars'::BigInt", func(tm *segment.TileMeta) segment.BlockRef {
			return tm.Columns[tm.ColumnsForPath(stars)[0]].Block
		}},
		{"docs", "data->'stars'", func(tm *segment.TileMeta) segment.BlockRef { return tm.DocRef(tm.DocPart("stars")) }},
	} {
		bad := corruptTable(t, mem, c.pick)
		s.Register("bad", bad)
		status, _, body := postQuery(t, ts.URL, "", fmt.Sprintf(`{"table": "bad", "select": [%q]}`, c.sel))
		if status != http.StatusInternalServerError || !strings.Contains(body, "unreadable") {
			t.Errorf("%s: corrupt table: status %d, want 500 naming the unreadable block:\n%s", c.name, status, body)
		}
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			if !strings.HasPrefix(line, `{"error"`) {
				t.Errorf("%s: corrupt table: response holds a line other than the error: %s", c.name, line)
			}
		}
	}
	status, _, body := postQuery(t, ts.URL, "", `{"table": "reviews", "select": ["data->>'stars'::BigInt"]}`)
	if _, _, rows := ndjsonRows(t, body); status != http.StatusOK || len(rows) != 400 {
		t.Errorf("clean table: status %d with %d rows, want 200 with 400", status, len(rows))
	}
}

// corruptTable appends mem, as one segment, to a table in a fresh
// MemStore, flips one byte of the block pick chooses from tile 1's
// footer record, and reopens the table; it closes with the test.
func corruptTable(t *testing.T, mem *jsontiles.Table, pick func(*segment.TileMeta) segment.BlockRef) *jsontiles.Table {
	t.Helper()
	store := jsontiles.NewMemStore()
	w, err := jsontiles.OpenStore(mem.Name(), store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTable(mem); err != nil {
		t.Fatal(err)
	}
	w.Close()
	file := manifest.SegmentFileName(0)
	r, err := segment.OpenStore(store, file, bufpool.New(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := pick(r.Tile(1))
	r.Close()
	size, err := store.Size(file)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := store.ReadRange(file, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	raw = append([]byte(nil), raw...)
	raw[ref.Off] ^= 0xFF
	if err := store.Put(file, raw); err != nil {
		t.Fatal(err)
	}
	bad, err := jsontiles.OpenStore(mem.Name(), store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bad.Close() })
	return bad
}

// TestAdmissionRejections drives the queue deterministically by
// occupying the execution slots directly (white-box): with the one
// slot taken and the one queue place occupied by a waiting request,
// the next request bounces immediately, and the waiter times out.
func TestAdmissionRejections(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueTimeout:  80 * time.Millisecond,
	})
	s.sem <- struct{}{} // occupy the only execution slot
	defer func() { <-s.sem }()

	env := `{"table": "reviews", "select": ["data->>'review_id'"], "limit": 1}`
	type result struct {
		status int
		hdr    http.Header
		body   string
	}
	waiter := make(chan result, 1)
	go func() {
		st, hdr, body := postQuery(t, ts.URL, "tenant-q", env)
		waiter <- result{st, hdr, body}
	}()
	// Wait until the first request holds the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never entered the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: immediate 429.
	st, hdr, body := postQuery(t, ts.URL, "tenant-full", env)
	if st != http.StatusTooManyRequests {
		t.Fatalf("queue-full status %d:\n%s", st, body)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("queue-full Retry-After = %q, want 1", hdr.Get("Retry-After"))
	}
	if !strings.Contains(body, "queue is full") {
		t.Fatalf("queue-full body: %s", body)
	}

	// Queue timeout: the waiter gives up after QueueTimeout.
	r := <-waiter
	if r.status != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout status %d:\n%s", r.status, r.body)
	}
	if !strings.Contains(r.body, "timed out") {
		t.Fatalf("queue-timeout body: %s", r.body)
	}
	if r.hdr.Get("Retry-After") != "1" {
		t.Fatalf("queue-timeout Retry-After = %q, want 1", r.hdr.Get("Retry-After"))
	}
}

// TestQueueAdmitsWhenSlotFrees: a queued request runs once the slot
// holder releases.
func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueTimeout:  5 * time.Second,
	})
	s.sem <- struct{}{}
	env := `{"table": "reviews", "select": ["data->>'review_id'"], "limit": 1}`
	done := make(chan int, 1)
	go func() {
		st, _, _ := postQuery(t, ts.URL, "", env)
		done <- st
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	<-s.sem // free the slot
	if st := <-done; st != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", st)
	}
}

func TestDrainingRejectsNewQueries(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	s.draining.Store(true)
	st, _, body := postQuery(t, ts.URL, "", `{"table": "reviews", "select": ["data->>'review_id'"]}`)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("draining /query status %d:\n%s", st, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", resp.StatusCode)
	}
}

func TestStartAndShutdown(t *testing.T) {
	tbl, err := jsontiles.Load("reviews", testDocs(200), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Addr: "127.0.0.1:0"})
	s.Register("reviews", tbl)
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	st, _, body := postQuery(t, url, "", `{"table": "reviews", "select": ["data->>'review_id'"], "limit": 3}`)
	if st != http.StatusOK {
		t.Fatalf("live server query status %d:\n%s", st, body)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Past shutdown, the listener is closed.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if st, _, _ := postQuery(t, ts.URL, "metrics-tenant", `{"table": "reviews", "select": ["data->>'review_id'"], "limit": 1}`); st != http.StatusOK {
		t.Fatalf("query status %d", st)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{
		"# TYPE admission_admitted counter",
		`tenant_queries_total{tenant="metrics-tenant"} `,
		"bufpool_pinned_bytes 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsTenantLabelsRoundTrip: tenant names come from a request
// header, so they may hold a tab, a quote, a backslash or bytes that are
// not UTF-8. /metrics must still be valid text exposition format: each
// name reads back, with the format's three escapes undone, as itself
// (invalid UTF-8 as U+FFFD).
func TestMetricsTenantLabelsRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	tenants := []string{"a\tb", "c\xffd", `q"\z`}
	for _, tenant := range tenants {
		if st, _, body := postQuery(t, ts.URL, tenant, `{"table": "reviews", "select": ["data->>'review_id'"], "limit": 1}`); st != http.StatusOK {
			t.Fatalf("tenant %q: status %d: %s", tenant, st, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	var got []string
	const prefix = `tenant_queries_total{tenant="`
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var name strings.Builder
		rest := line[len(prefix):]
		for i := 0; i < len(rest) && rest[i] != '"'; i++ {
			c := rest[i]
			if c == '\\' {
				i++
				switch rest[i] {
				case '\\', '"':
					c = rest[i]
				case 'n':
					c = '\n'
				default:
					t.Fatalf("label escape \\%c is not in the text format: %q", rest[i], line)
				}
			}
			name.WriteByte(c)
		}
		if !utf8.ValidString(name.String()) {
			t.Fatalf("label is not UTF-8: %q", line)
		}
		got = append(got, name.String())
	}
	for _, tenant := range tenants {
		want := strings.ToValidUTF8(tenant, "\uFFFD")
		found := false
		for _, g := range got {
			found = found || g == want
		}
		if !found {
			t.Errorf("tenant %q does not read back as %q from /metrics (read %q)", tenant, want, got)
		}
	}
}
