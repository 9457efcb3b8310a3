// Command jtserve is the query service: it opens one or more table
// directories and serves them over HTTP with admission control and
// per-tenant accounting.
//
//	jtload -dir /data/tweets.jt tweets.jsonl
//	jtserve -dir /data/tweets.jt -addr :8080
//	curl -s -H 'X-JT-Tenant: analytics' -d '{
//	    "table": "tweets",
//	    "select": ["data->>'user'->>'screen_name'", "data->>'retweet_count'::BigInt"],
//	    "where":  [{"col": 1, "op": ">", "value": 100}],
//	    "limit":  10
//	}' http://localhost:8080/query
//
// The response is NDJSON: a {"columns": [...]} header, one JSON array
// per row, and a {"rows": N, "wall_ms": ...} trailer. SIGINT/SIGTERM
// drains in-flight queries (bounded by -drain-timeout), cancels
// stragglers, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	jsontiles "repro"
	"repro/internal/service"
)

// tenantQuotaFlag accumulates repeated -tenant-quota tenant=bytes
// pairs.
type tenantQuotaFlag map[string]int64

func (f tenantQuotaFlag) String() string { return fmt.Sprint(map[string]int64(f)) }

func (f tenantQuotaFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want tenant=bytes, got %q", s)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("bad quota in %q", s)
	}
	f[name] = n
	return nil
}

func main() {
	var dirs stringsFlag
	flag.Var(&dirs, "dir", "table directory to serve (repeatable; table name = directory base name without .jt)")
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 4, "queries executing at once")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth (0 = 2×max-concurrent)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "max wait for an execution slot")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	workers := flag.Int("workers", 0, "per-query scan parallelism (0 = all CPUs)")
	cacheMB := flag.Int("cache-mb", 0, "buffer-pool capacity per table in MiB (0 = default)")
	quotas := tenantQuotaFlag{}
	flag.Var(quotas, "tenant-quota", "per-tenant buffer-pool byte quota, tenant=bytes (repeatable)")
	debugAddr := flag.String("debug-addr", "", "also serve the debug surface (pprof, /debug/queries) on this address")
	slowMS := flag.Int("slow-ms", 0, "log queries slower than this many milliseconds as JSON lines on stderr")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight queries before cancelling them")
	store := flag.String("store", "fs", "block store serving each -dir: fs (direct filesystem), fakes3 (simulated object store over the same files)")
	storeLatency := flag.Duration("store-latency", 0, "with -store fakes3: simulated per-request round trip")
	flag.Parse()

	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: jtserve -dir <table.jt> [-dir ...] [flags]")
		os.Exit(2)
	}

	opts := jsontiles.DefaultOptions()
	opts.Workers = *workers
	if *cacheMB > 0 {
		opts.CacheBytes = int64(*cacheMB) << 20
	}
	if *slowMS > 0 {
		opts.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
	}

	srv := service.New(service.Config{
		Addr:           *addr,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		QueueTimeout:   *queueTimeout,
		DefaultTimeout: *timeout,
	})

	var tables []*jsontiles.Table
	for _, dir := range dirs {
		name := strings.TrimSuffix(filepath.Base(dir), ".jt")
		tbl, err := openTable(name, dir, *store, *storeLatency, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jtserve: open %s: %v\n", dir, err)
			os.Exit(1)
		}
		for tenant, quota := range quotas {
			tbl.SetTenantQuota(tenant, quota)
		}
		srv.Register(name, tbl)
		tables = append(tables, tbl)
		fmt.Fprintf(os.Stderr, "jtserve: serving %q from %s (%d rows, %d segments)\n",
			name, dir, tbl.NumRows(), tbl.NumSegments())
	}

	if *debugAddr != "" {
		dbg, err := jsontiles.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtserve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jtserve: debug server on http://%s\n", dbg)
	}

	actual, err := srv.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "jtserve: listening on http://%s\n", actual)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "jtserve: draining...")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "jtserve: shutdown:", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	jsontiles.ShutdownDebug(sctx)
	for _, tbl := range tables {
		tbl.Close()
	}
	fmt.Fprintln(os.Stderr, "jtserve: bye")
}

// openTable opens the table directory dir on the block store selected
// by -store: fs opens the directory itself (OpenDir); fakes3 serves the
// same files through a simulated object store (OpenStore), so
// directories loaded by `jtload -store fakes3` serve unchanged — with
// the simulated round trips showing up in scan latency and /metrics
// store counters.
func openTable(name, dir, kind string, latency time.Duration, opts jsontiles.Options) (*jsontiles.Table, error) {
	switch kind {
	case "", "fs":
		return jsontiles.OpenDir(name, dir, opts)
	case "fakes3":
		inner, err := jsontiles.NewFSStore(dir)
		if err != nil {
			return nil, err
		}
		return jsontiles.OpenStore(name, jsontiles.NewFakeS3Store(inner, latency), opts)
	}
	return nil, fmt.Errorf("unknown -store %q (want fs or fakes3)", kind)
}

// stringsFlag collects repeated flag values.
type stringsFlag []string

func (f *stringsFlag) String() string { return strings.Join(*f, ",") }

func (f *stringsFlag) Set(s string) error {
	*f = append(*f, s)
	return nil
}
