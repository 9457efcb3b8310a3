package jsontiles

// The debug HTTP surface: a process-wide server exposing the metric
// registry in Prometheus text exposition format, the live-query
// registry as JSON, recent query timelines as Chrome trace-event
// JSON, and net/http/pprof. Started with ServeDebug.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"repro/internal/obs"
)

var debugSrv struct {
	mu   sync.Mutex
	addr string // actual listen address once started
	srv  *http.Server
}

// ServeDebug starts the process-wide debug HTTP server on addr
// ("host:port"; ":0" picks a free port) and returns the actual listen
// address. It serves:
//
//	/metrics        — every counter, gauge, and histogram of the
//	                  default registry, Prometheus text exposition
//	                  format
//	/debug/queries  — the in-flight queries as a JSON array (id, plan
//	                  digest, tables, elapsed, rows/tiles/bytes so far)
//	/debug/trace    — the last N finished queries' timelines (query,
//	                  plan for multi-table queries, execute) as Chrome
//	                  trace-event JSON (load in chrome://tracing or
//	                  Perfetto); ?last=N, default 16
//	/debug/pprof/…  — the standard net/http/pprof handlers
//
// The server is process-wide and started at most once: subsequent
// calls (any addr) return the first server's address.
func ServeDebug(addr string) (string, error) {
	debugSrv.mu.Lock()
	defer debugSrv.mu.Unlock()
	if debugSrv.addr != "" {
		return debugSrv.addr, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: debugMux()}
	go srv.Serve(ln)
	debugSrv.addr = ln.Addr().String()
	debugSrv.srv = srv
	return debugSrv.addr, nil
}

// ShutdownDebug gracefully stops the process-wide debug server,
// waiting for in-flight handlers up to ctx's deadline. A no-op when
// the server was never started. After shutdown, ServeDebug can start
// a fresh server.
func ShutdownDebug(ctx context.Context) error {
	debugSrv.mu.Lock()
	srv := debugSrv.srv
	debugSrv.srv = nil
	debugSrv.addr = ""
	debugSrv.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/debug/queries", handleQueries)
	mux.HandleFunc("/debug/trace", handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteAllMetrics(w)
}

func handleQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	live := obs.Queries.Live()
	if live == nil {
		live = []obs.QueryProgress{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(live)
}

func handleTrace(w http.ResponseWriter, r *http.Request) {
	n := 16
	if s := r.URL.Query().Get("last"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "last must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, obs.Traces.Last(n))
}
