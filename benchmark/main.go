// Command benchmark is the engine's one end-to-end benchmark: four
// fixed-work workloads that each load NDJSON, compact, and answer
// queries — cold through a delayed store, warm from the buffer pool,
// or over HTTP beside appends — with per-layer attribution from a
// second, traced pass. BENCHMARK.json at the repository root fixes the
// workloads, metric names, units, directions and regression bounds;
// README.md in this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runCmd(args)
	case "compare":
		err = compareCmd(args)
	default:
		err = fmt.Errorf("unknown command %q (want run or compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOpts are the flags of one workload run.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	scale    string
	outDir   string
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run in this process (default: all four, one process each)")
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Int("seconds", 0, "run length the fixed operation counts are scaled to (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "", "0 = end-to-end metrics, tracing off; 1 = traced pass with per-layer metrics (default: 0 with -workload, both without)")
	scale := fs.String("scale", "full", "full, or tiny for the test suite")
	out := fs.String("out", "", "directory for reports and traces (default: <benchmark dir>/out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, root, err := loadSpec(".")
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *out == "" {
		*out = filepath.Join(root, spec.Paths[0], "out")
	}
	if *workload != "" {
		if *trace != "" && *trace != "0" && *trace != "1" {
			return fmt.Errorf("-trace must be 0 or 1")
		}
		_, err := runWorkload(spec, root, runOpts{
			workload: *workload, seed: *seed, seconds: *seconds,
			traced: *trace == "1", scale: *scale, outDir: *out,
		}, os.Stdout)
		return err
	}
	return runAll(spec, *seed, *seconds, *trace, *scale, *out)
}

// runAll runs every workload in a process of its own — untraced, then
// traced — so that one workload's heap, pools and counters never touch
// another's, and ends with the summary.
func runAll(spec *benchSpec, seed int64, seconds int, trace, scale, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	passes := []string{"0", "1"}
	if trace != "" {
		passes = []string{trace}
	}
	failed := 0
	start := time.Now()
	for _, w := range spec.Workloads {
		for _, t := range passes {
			cmd := exec.Command(self, "run", "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", t, "-scale", scale, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", w.Name, t, err)
				failed++
			}
		}
	}
	summary, _ := json.Marshal(map[string]any{
		"workloads": len(spec.Workloads), "runs_failed": failed, "seed": seed, "seconds": seconds,
		"nproc": runtime.NumCPU(), "wall_s": secondsSince(start), "reports": out, "claim": nil,
	})
	fmt.Println(string(summary))
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
