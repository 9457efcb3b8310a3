package jsontiles

// Slow-query logging: queries whose wall time reaches
// Options.SlowQueryThreshold emit one self-contained JSON line on
// stderr. The line carries enough to triage without re-running the
// query — total times, result size, the plan digest to group
// recurrences of the same template, and the top operators by
// exclusive wall time.

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// slowLog receives slow-query lines; slowLogMu serializes them
// process-wide so concurrent queries never interleave partial lines.
// Only tests replace slowLog (under slowLogMu).
var (
	slowLogMu sync.Mutex
	slowLog   io.Writer = os.Stderr
)

// SlowQueryRecord is the JSON shape of one slow-query log line.
type SlowQueryRecord struct {
	// Time is when the line was written (RFC 3339, UTC).
	Time string `json:"time"`
	// Tenant is the identity the query ran under; omitted for direct
	// library calls (lines from older versions also lack it).
	Tenant string `json:"tenant,omitempty"`
	// QueryID and PlanDigest match QueryStats and /debug/queries.
	QueryID    uint64 `json:"query_id"`
	PlanDigest string `json:"plan_digest"`
	// WallMS/PlanMS/ExecMS are the total, optimizer, and execution
	// wall times in milliseconds.
	WallMS float64 `json:"wall_ms"`
	PlanMS float64 `json:"plan_ms"`
	ExecMS float64 `json:"exec_ms"`
	// RowsReturned is the final result size.
	RowsReturned int64 `json:"rows_returned"`
	// TopOperators are the up-to-three plan operators with the
	// largest exclusive wall time (own time minus children's),
	// largest first.
	TopOperators []SlowQueryOperator `json:"top_operators"`
}

// SlowQueryOperator is one entry of SlowQueryRecord.TopOperators.
type SlowQueryOperator struct {
	Op     string  `json:"op"`
	Detail string  `json:"detail,omitempty"`
	WallMS float64 `json:"wall_ms"`
	Rows   int64   `json:"rows"`
}

// writeSlowQueryLog emits one JSON line for stats to slowLog.
func writeSlowQueryLog(stats *QueryStats) {
	rec := SlowQueryRecord{
		Time:         time.Now().UTC().Format(time.RFC3339Nano),
		Tenant:       stats.Tenant,
		QueryID:      stats.QueryID,
		PlanDigest:   stats.PlanDigest,
		WallMS:       durationMS(stats.Wall),
		PlanMS:       durationMS(stats.PlanTime),
		ExecMS:       durationMS(stats.ExecTime),
		RowsReturned: stats.RowsReturned,
		TopOperators: topOperators(stats.Plan, 3),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	slowLogMu.Lock()
	slowLog.Write(line)
	slowLogMu.Unlock()
}

func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// topOperators ranks the plan's operators by exclusive wall time —
// the node's inclusive time minus its children's, clamped at zero —
// and returns the n largest.
func topOperators(plan *PlanNode, n int) []SlowQueryOperator {
	var all []SlowQueryOperator
	var walk func(*PlanNode)
	walk = func(p *PlanNode) {
		if p == nil {
			return
		}
		if p.Analyzed {
			excl := p.Wall
			for _, c := range p.Children {
				excl -= c.Wall
			}
			if excl < 0 {
				excl = 0
			}
			all = append(all, SlowQueryOperator{
				Op: p.Op, Detail: p.Detail, WallMS: durationMS(excl), Rows: p.Rows,
			})
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(plan)
	// Insertion sort by descending wall time; plans are small.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].WallMS > all[j-1].WallMS; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > n {
		all = all[:n]
	}
	return all
}
