// Package service is the network front door: an HTTP/JSON query
// endpoint over registered tables with per-query contexts, admission
// control, and per-tenant resource accounting.
//
// Three concerns separate it from a bare handler around Query.Run:
//
//   - Per-query contexts: every request runs under a context derived
//     from the client connection, the configured (or requested)
//     timeout, and the server's shutdown state. Cancellation — client
//     gone, deadline hit, server draining — stops the scans at the
//     next morsel boundary via Query.RunContext.
//   - Admission control: at most MaxConcurrent queries execute at
//     once; up to QueueDepth more wait in line for QueueTimeout.
//     Beyond that, requests are rejected immediately with 429 and a
//     Retry-After hint, so overload degrades to fast rejections
//     instead of a convoy of slow everything.
//   - Tenant governance: the TenantHeader identifies the tenant, the
//     identity rides the query context into the engine, and the
//     tenant's buffer-pool residency, scan bytes, queue waits, and
//     rejections are accounted in obs.Tenants and exported on
//     /metrics as labeled series.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	jsontiles "repro"
	"repro/internal/jsontext"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// Addr is the listen address for Start (":0" picks a free port).
	Addr string
	// MaxConcurrent caps the queries executing at once (default 4).
	MaxConcurrent int
	// QueueDepth is how many admitted-but-waiting queries may line up
	// behind the executing ones (default 2×MaxConcurrent).
	QueueDepth int
	// QueueTimeout bounds the wait in the admission queue; a query
	// that cannot start in time is rejected with 429 (default 2s).
	QueueTimeout time.Duration
	// DefaultTimeout is the per-query deadline when the request does
	// not set timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// TenantHeader names the HTTP header carrying the tenant identity
	// (default "X-JT-Tenant").
	TenantHeader string
	// DefaultTenant is used when the header is absent (default
	// "default").
	DefaultTenant string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-JT-Tenant"
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = "default"
	}
	return c
}

// Server serves queries over registered tables.
type Server struct {
	cfg Config

	mu     sync.RWMutex
	tables map[string]*jsontiles.Table

	sem   chan struct{} // execution slots
	queue chan struct{} // waiting-line slots

	draining atomic.Bool
	inflight sync.WaitGroup // admitted queries

	// baseCtx is cancelled by Shutdown once the drain deadline passes,
	// aborting straggler queries mid-scan.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	srv *http.Server
	ln  net.Listener
}

// New builds a server from cfg. Register tables before Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		tables:     map[string]*jsontiles.Table{},
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		queue:      make(chan struct{}, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

// Register exposes t under name on the /query endpoint.
func (s *Server) Register(name string, t *jsontiles.Table) {
	s.mu.Lock()
	s.tables[name] = t
	s.mu.Unlock()
}

func (s *Server) table(name string) *jsontiles.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[name]
}

func (s *Server) tableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler returns the server's HTTP handler (tests drive it through
// httptest without a listener).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Start listens on cfg.Addr and serves in the background, returning
// the actual listen address.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains the server: new queries are rejected with 503,
// in-flight ones get until ctx's deadline to finish, stragglers are
// cancelled (their scans stop at the next morsel boundary), and the
// HTTP server closes once the handlers return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // abort stragglers mid-scan
		<-done
	}
	s.baseCancel()
	if s.srv == nil {
		return nil
	}
	// The queries are done; give the HTTP layer a moment to flush
	// responses and close connections.
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(sctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

var (
	errDraining     = errors.New("server is draining")
	errQueueFull    = errors.New("admission queue is full")
	errQueueTimeout = errors.New("timed out waiting for an execution slot")
)

// admit acquires an execution slot, waiting in the bounded queue if
// none is free. It returns the release function, or the HTTP status
// to reject with.
func (s *Server) admit(ctx context.Context, tc *obs.TenantCounters) (release func(), status int, err error) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, errDraining
	}
	select {
	case s.sem <- struct{}{}:
		obs.AdmissionAdmitted.Inc()
		return func() { <-s.sem }, 0, nil
	default:
	}
	// All slots busy: take a place in the waiting line (or reject).
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, http.StatusTooManyRequests, errQueueFull
	}
	obs.AdmissionQueued.Inc()
	obs.QueriesQueued.Add(1)
	tc.QueueWaits.Inc()
	defer func() {
		<-s.queue
		obs.QueriesQueued.Add(-1)
	}()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		obs.AdmissionAdmitted.Inc()
		return func() { <-s.sem }, 0, nil
	case <-timer.C:
		return nil, http.StatusTooManyRequests, errQueueTimeout
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable, ctx.Err()
	}
}

// errorBody is the JSON error shape (pre-stream failures).
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Write([]byte("ok\n"))
}

func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteAllMetrics(w)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a query envelope to /query")
		return
	}
	req, err := decodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tbl := s.table(req.Table)
	if tbl == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown table %q (have %v)", req.Table, s.tableNames()))
		return
	}

	tenant := r.Header.Get(s.cfg.TenantHeader)
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	tc := obs.Tenants.Get(tenant)

	release, status, aerr := s.admit(r.Context(), tc)
	if aerr != nil {
		tc.Rejections.Inc()
		obs.AdmissionRejected.Inc()
		writeError(w, status, aerr.Error())
		return
	}
	s.inflight.Add(1)
	defer func() {
		release()
		s.inflight.Done()
	}()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	qctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Shutdown past its drain deadline aborts this query too.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	qctx = obs.WithTenant(qctx, tenant)

	q, err := buildQuery(tbl, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	start := time.Now()
	var res *jsontiles.Result
	var stats *jsontiles.QueryStats
	if req.Analyze {
		res, stats, err = q.RunAnalyzedContext(qctx)
	} else {
		res, err = q.RunContext(qctx)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, err.Error())
		case errors.Is(err, context.Canceled):
			// Client went away or the server is shutting down; the
			// status is best-effort (the client may never read it).
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	streamResult(w, res, stats, time.Since(start))
}

// streamResult writes the result as NDJSON: a columns header, one
// JSON array per row, and a trailer with the row count, wall time and,
// when analyzed, the plan. Rows are encoded straight from the result's
// column vectors (Result.AppendJSONRow) into one buffer, written out
// every 32 KiB. The engine collects the whole result first (DESIGN
// §6.7), so this bounds response memory on the HTTP side only.
func streamResult(w http.ResponseWriter, res *jsontiles.Result, stats *jsontiles.QueryStats, wall time.Duration) {
	const chunk = 32 << 10
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	buf := append(make([]byte, 0, chunk+chunk/4), `{"columns":[`...)
	for i, c := range res.Columns() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsontext.AppendQuotedHTML(buf, c)
	}
	buf = append(buf, "]}\n"...)
	n := res.NumRows()
	for i := 0; i < n; i++ {
		buf = append(res.AppendJSONRow(buf, i), '\n')
		if len(buf) >= chunk {
			w.Write(buf)
			buf = buf[:0]
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	buf = append(buf, `{"rows":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, `,"wall_ms":`...)
	buf = vec.AppendJSONFloat(buf, float64(wall)/float64(time.Millisecond))
	if stats != nil && stats.Plan != nil {
		buf = jsontext.AppendQuotedHTML(append(buf, `,"plan":`...), stats.Plan.String())
	}
	w.Write(append(buf, "}\n"...))
	if flusher != nil {
		flusher.Flush()
	}
}
