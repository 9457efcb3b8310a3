// Command jtbench reproduces the paper's evaluation: one experiment
// per table and figure of §6. Run a single experiment by id, several,
// or all of them:
//
//	jtbench -list
//	jtbench tab1
//	jtbench -scale 0.02 -repeats 5 fig9 fig10
//	jtbench all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	jsontiles "repro"
	"repro/internal/bench"
)

func main() {
	opts := bench.DefaultOptions()
	flag.Float64Var(&opts.Scale, "scale", opts.Scale, "TPC-H scale factor (sizes all workloads)")
	flag.IntVar(&opts.Workers, "workers", 0, "scan/load parallelism (0 = all CPUs)")
	flag.IntVar(&opts.Repeats, "repeats", opts.Repeats, "timed repetitions per measurement (median reported)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/queries, /debug/trace, and pprof on this address")
	flag.Parse()

	if *debugAddr != "" {
		addr, err := jsontiles.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jtbench: debug server on http://%s\n", addr)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: jtbench [flags] <experiment-id>... | all   (see -list)")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}

	ctx := bench.NewContext(opts)
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "jtbench: unknown experiment %q (see -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		base := ctx.Metrics.Snapshot()
		if err := e.Run(os.Stdout, ctx); err != nil {
			fmt.Fprintf(os.Stderr, "jtbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if delta := ctx.Metrics.Snapshot().Sub(base); delta.TilesBuilt > 0 {
			fmt.Printf("-- load breakdown: %s --\n", delta)
		}
		fmt.Printf("-- %s done in %s --\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
