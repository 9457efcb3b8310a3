package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// countMetrics are counts the program makes of its own work: with the
// same seed they repeat, so two commits must agree within countTol or
// the difference is a change in behaviour, whatever the clocks say.
// Store requests only repeat without scan parallelism, so that one is
// held to the rule on single-CPU runs only.
var countMetrics = map[string]bool{
	"stored_bytes_per_input_byte":      true,
	"wire_bytes_per_query":             true,
	"blockstore.range_reads_per_query": true,
}

const countTol = 0.01

// quartileSpread is the distance between the first and third quartile
// as a share of the median (Python's statistics.quantiles(n=4),
// exclusive method); with fewer than four values, the range.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	med := median(s)
	if len(s) < 4 {
		return ratio(s[len(s)-1]-s[0], med)
	}
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return ratio(q(0.75)-q(0.25), med)
}

// runSet is one side of a comparison: every report of a directory,
// grouped by workload and metric.
type runSet struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	failed int64
	nproc  int
	runs   int
}

func loadRunSet(dir string) (*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	rs := &runSet{values: map[string]map[string][]float64{}}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" || r.Metrics == nil {
			continue // a trace file, not a report
		}
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			rs.values[r.Workload][name] = append(rs.values[r.Workload][name], m.Value)
		}
		rs.failed += r.Failed
		rs.nproc = r.NProc
		rs.runs++
	}
	if rs.runs == 0 {
		return nil, fmt.Errorf("%s: no benchmark reports", dir)
	}
	return rs, nil
}

// compareCmd implements `benchmark compare A/ B/`: A is the parent's
// reports, B the change's. It prints one row per workload and metric
// and fails on a regression beyond a metric's bound, a count that
// moved, or failed operations on the B side.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare <parent reports dir> <change reports dir>")
	}
	spec, _, err := loadSpec(".")
	if err != nil {
		return err
	}
	a, err := loadRunSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadRunSet(args[1])
	if err != nil {
		return err
	}
	bad := compareSets(os.Stdout, spec, a, b)
	if b.failed > a.failed {
		fmt.Printf("failed operations: %d in %s, %d in %s\n", a.failed, args[0], b.failed, args[1])
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// compareSets writes the table and returns how many rows regressed.
func compareSets(w io.Writer, spec *benchSpec, a, b *runSet) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tworse by\tspread\tbound\tverdict")
	bad := 0
	declared := append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	workloads := make([]string, 0, len(a.values))
	for wl := range a.values {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		for _, d := range declared {
			av, bv := a.values[wl][d.Name], b.values[wl][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			// worse is the change against the metric's direction, as a
			// share of the parent's median.
			worse := ratio(bm-am, am)
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(av), quartileSpread(bv))
			verdict := "info"
			switch {
			case countMetrics[d.Name] && (d.Bound > 0 || a.nproc == 1):
				verdict = "same"
				if ratio(math.Abs(bm-am), am) > countTol {
					verdict = "COUNT MOVED"
					bad++
				}
			case d.Bound > 0 && worse > d.Bound:
				verdict = "REGRESSED"
				bad++
			case d.Bound > 0 && spread > d.Bound:
				verdict = "unresolved"
			case d.Bound > 0 && worse < -d.Bound:
				verdict = "better"
			case d.Bound > 0:
				verdict = "unchanged"
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%s\t%s\n",
				wl, d.Name, am, bm, worse*100, spread*100, bound, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "parent: %d reports, change: %d reports; medians per side; spread = interquartile range / median, the wider side\n", a.runs, b.runs)
	return bad
}
