// Command jtquery runs ad-hoc projection queries with PostgreSQL-style
// JSON access expressions over a newline-delimited JSON file:
//
//	jtgen -workload twitter | jtquery "data->'user'->>'screen_name'" "data->>'retweet_count'::BigInt"
//	jtquery -f reviews.jsonl -where-not-null 0 -limit 10 "data->>'stars'::BigInt"
//	jtquery -f reviews.jsonl -analyze -where-not-null 0 "data->>'stars'::BigInt"
//	jtquery -dir reviews.jt "data->>'stars'::BigInt"    # query a table directory
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	jsontiles "repro"
	"repro/internal/obs"
)

func main() {
	file := flag.String("f", "-", "input file ('-' = stdin)")
	dir := flag.String("dir", "", "query a multi-segment table directory written by 'jtload -dir'")
	limit := flag.Int("limit", 20, "max rows to print (0 = all)")
	notNull := flag.Int("where-not-null", -1, "keep rows where this select column is not null")
	tileSize := flag.Int("tilesize", 1024, "tuples per tile")
	workers := flag.Int("workers", 0, "load and scan parallelism (0 = all CPUs)")
	explain := flag.Bool("explain", false, "print the chosen plan without executing")
	analyze := flag.Bool("analyze", false, "execute and print the plan with measured per-operator stats")
	metrics := flag.Bool("metrics", false, "dump the process-wide metrics registry after the query")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/queries, /debug/trace, and pprof on this address")
	serve := flag.Bool("serve", false, "with -debug-addr: keep re-running the query so the debug endpoints stay observable (ctrl-c to stop)")
	slowMS := flag.Int("slow-ms", 0, "log queries slower than this many milliseconds as JSON lines on stderr")
	store := flag.String("store", "fs", "with -dir: block store serving the bytes: fs (direct filesystem), fakes3 (simulated object store over the same files)")
	storeLatency := flag.Duration("store-latency", 0, "with -store fakes3: simulated per-request round trip")
	url := flag.String("url", "", "query a running jtserve instead of local data, e.g. http://localhost:8080 (uses -table, -tenant)")
	table := flag.String("table", "input", "with -url: table name on the server")
	tenant := flag.String("tenant", "", "with -url: tenant identity sent in X-JT-Tenant")
	flag.Parse()

	selects := flag.Args()
	if len(selects) == 0 {
		fmt.Fprintln(os.Stderr, "usage: jtquery [flags] <access-expression>...")
		os.Exit(2)
	}

	if *url != "" {
		runRemote(*url, *table, *tenant, selects, *notNull, *limit)
		return
	}

	if *debugAddr != "" {
		addr, err := jsontiles.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jtquery: debug server on http://%s\n", addr)
	}

	opts := jsontiles.DefaultOptions()
	opts.TileSize = *tileSize
	opts.Workers = *workers
	if *slowMS > 0 {
		opts.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
	}
	var tbl *jsontiles.Table
	var err error
	if *dir != "" {
		opts.CompactFanIn = -1 // read-only use: no background compaction
		tbl, err = openTable("input", *dir, *store, *storeLatency, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
		defer tbl.Close()
	} else {
		in := os.Stdin
		if *file != "-" {
			f, err := os.Open(*file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jtquery:", err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		}
		tbl, err = jsontiles.LoadReader("input", in, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
	}

	q := tbl.Query(selects...)
	if *notNull >= 0 {
		q = q.WhereNotNull(*notNull)
	}
	if *limit > 0 {
		q = q.Limit(*limit)
	}
	switch {
	case *explain:
		plan, err := q.Explain()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
		fmt.Print(plan)
	case *analyze:
		res, stats, err := q.RunAnalyzed()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
		fmt.Print(res)
		fmt.Printf("(%d rows)\n\n", res.NumRows())
		fmt.Print(stats)
	default:
		res, err := q.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
		fmt.Print(res)
		fmt.Printf("(%d rows)\n", res.NumRows())
	}
	if *metrics {
		fmt.Println()
		if _, err := obs.Default.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "jtquery:", err)
			os.Exit(1)
		}
	}
	if *serve {
		// Keep the process observable: re-run the query forever so
		// /debug/queries has in-flight entries and the histograms keep
		// filling. CI smoke tests and interactive profiling use this.
		fmt.Fprintln(os.Stderr, "jtquery: -serve: re-running query until interrupted")
		for {
			if _, err := q.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "jtquery:", err)
				os.Exit(1)
			}
		}
	}
}

// openTable opens the table directory dir on the block store selected
// by -store: fs opens the directory itself (OpenDir); fakes3 serves the
// same files through a simulated object store (OpenStore), so data
// written by `jtload -store fakes3` is queryable here. A mem store
// would always be empty in a fresh process, so jtquery does not offer
// it.
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

// remoteEnvelope mirrors the service's query envelope (the subset the
// CLI can express).
type remoteEnvelope struct {
	Table  string        `json:"table"`
	Select []string      `json:"select"`
	Where  []remoteWhere `json:"where,omitempty"`
	Limit  *int          `json:"limit,omitempty"`
}

type remoteWhere struct {
	Col int    `json:"col"`
	Op  string `json:"op"`
}

// runRemote posts the query to a jtserve and streams the NDJSON
// response to stdout.
func runRemote(url, table, tenant string, selects []string, notNull, limit int) {
	env := remoteEnvelope{Table: table, Select: selects}
	if notNull >= 0 {
		env.Where = append(env.Where, remoteWhere{Col: notNull, Op: "not_null"})
	}
	if limit > 0 {
		env.Limit = &limit
	}
	body, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtquery:", err)
		os.Exit(1)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtquery:", err)
		os.Exit(1)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-JT-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtquery:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "jtquery: server: %s: %s", resp.Status, msg)
		os.Exit(1)
	}
	// Stream the NDJSON lines through verbatim.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if _, err := io.Copy(out, resp.Body); err != nil {
		fmt.Fprintln(os.Stderr, "jtquery:", err)
		os.Exit(1)
	}
}
