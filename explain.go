package jsontiles

// EXPLAIN / EXPLAIN ANALYZE: the optimizer's chosen plan as a tree,
// optionally annotated with measured per-operator wall times, row
// counts, and per-table tile-skip ratios (paper §4.8) and column-hit
// vs binary-JSON-fallback splits (§4.5/§5).

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/xxhash"
)

// PlanNode is one operator of a query plan. A node from Explain
// carries the plan shape and cardinality estimates; a node from
// RunAnalyzed additionally carries measured execution statistics
// (Analyzed is set).
type PlanNode struct {
	// Op is the operator kind ("Scan", "HashJoin", "GroupBy", ...).
	Op string
	// Detail describes the operator (table, join sides, key counts).
	Detail string
	// EstRows is the optimizer's cardinality estimate (< 0 when the
	// operator has none).
	EstRows float64
	// Children are the input operators (build side first for joins).
	Children []*PlanNode

	// Analyzed is set when the node carries measured statistics.
	Analyzed bool
	// Wall is the operator's inclusive wall time (its whole subtree).
	Wall time.Duration
	// Rows is the number of rows the operator emitted.
	Rows int64
	// Scan holds the storage-level counters for scan nodes.
	Scan *ScanStats
	// AggPartitions is the hash-partition fan-out of a GroupBy node's
	// merge phase (0 for other operators; 1 = serial merge).
	AggPartitions int64
}

// ScanStats are the storage-level counters of one table scan: the
// relation's shape at plan time and the counts the scan added up
// (obs.ScanCounts documents each).
type ScanStats struct {
	// Table is the scanned relation's name.
	Table string
	// NumTiles is the relation's total tile count (0 for formats
	// without tiles); TilesScanned + TilesSkipped == NumTiles.
	NumTiles int64
	// SegmentsLive is the number of live segment files backing the
	// relation at plan time (0 for in-memory and single-file tables).
	SegmentsLive int64
	obs.ScanCounts
}

// QueryStats summarizes one analyzed query execution from the query's
// own plan and timeline: RunAnalyzed returns it and the slow-query log
// reads it. Other queries running at the same time do not change it.
type QueryStats struct {
	// Tenant is the identity the query ran under (obs.WithTenant);
	// empty for direct library calls.
	Tenant string
	// Plan is the executed plan with per-operator stats.
	Plan *PlanNode
	// Wall is the end-to-end query time, PlanTime the optimizer's
	// share (0 for a one-table query), ExecTime the operator execution
	// and materialization; the query's obs.QueryTrace in the trace ring
	// holds the same three.
	Wall     time.Duration
	PlanTime time.Duration
	ExecTime time.Duration
	// RowsReturned is the final result size.
	RowsReturned int64
	// QueryID is the live-query registry's ID for this execution;
	// PlanDigest is a stable 64-bit hash of the plan shape (hex), the
	// key used to correlate slow-query log lines, /debug/queries rows,
	// and trace-ring entries of the same query template.
	QueryID    uint64
	PlanDigest string
	// DictKernelShortcuts counts the predicate kernels this query's
	// scans evaluated in dictionary code space, summed over its scan
	// nodes; DictGroupByBatches counts the batches its GroupBy grouped
	// through the code-indexed fast path. Both are the query's own
	// counts, exact however many queries run beside it.
	DictKernelShortcuts int64
	DictGroupByBatches  int64
}

// String renders the summary line followed by the plan tree.
func (s QueryStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "wall %s  plan %s  exec %s  rows %d",
		s.Wall.Round(time.Microsecond), s.PlanTime.Round(time.Microsecond),
		s.ExecTime.Round(time.Microsecond), s.RowsReturned)
	if s.DictKernelShortcuts > 0 || s.DictGroupByBatches > 0 {
		fmt.Fprintf(&sb, "  dict_kernels=%d dict_groupby=%d",
			s.DictKernelShortcuts, s.DictGroupByBatches)
	}
	sb.WriteByte('\n')
	if s.Plan != nil {
		sb.WriteString(s.Plan.String())
	}
	return sb.String()
}

// Explain returns the plan the optimizer chooses for the query — join
// order, cardinality estimates, pushed-down filters — without
// executing it.
func (q *Query) Explain() (*PlanNode, error) {
	root, err := q.buildPlan(context.Background(), &planRecord{})
	if err != nil {
		return nil, err
	}
	return planNode(root), nil
}

// planDigest hashes the plan's shape — operator kinds, details, and
// tree structure, not runtime statistics — so repeated executions of
// the same query template share one digest.
func planDigest(root engine.Operator) string {
	sum := xxhash.Sum64(digestWalk(make([]byte, 0, 256), root))
	return hex.EncodeToString(binary.BigEndian.AppendUint64(nil, sum))
}

// digestWalk appends "Label(Detail)[child;child;]" for op's subtree.
func digestWalk(b []byte, op engine.Operator) []byte {
	tr := op.(*engine.Traced)
	b = append(append(append(append(b, tr.Label...), '('), tr.Detail...), ")["...)
	for _, in := range engine.Inputs(tr.In) {
		b = append(digestWalk(b, in), ';')
	}
	return append(b, ']')
}

// RunAnalyzed executes the query and returns the result together with
// the analyzed plan: measured wall time and row count per operator,
// and per-table scan statistics (tiles scanned vs skipped, column hits
// vs binary-JSON fallbacks).
func (q *Query) RunAnalyzed() (*Result, *QueryStats, error) {
	return q.run(context.Background(), true)
}

// RunAnalyzedContext is RunAnalyzed under a per-query context (see
// RunContext for the cancellation and tenant semantics).
func (q *Query) RunAnalyzedContext(ctx context.Context) (*Result, *QueryStats, error) {
	return q.run(ctx, true)
}

// planNode converts a plan (sub)tree built by buildPlan, whose every
// operator is wrapped in an engine.Traced node, into its plan
// description; a node whose operator ran carries its measured
// statistics.
func planNode(op engine.Operator) *PlanNode {
	tr := op.(*engine.Traced)
	n := &PlanNode{Op: tr.Label, Detail: tr.Detail, EstRows: tr.EstRows}
	if tr.Ran() {
		n.Analyzed = true
		n.Wall = tr.WallTime()
		n.Rows = tr.Rows()
		switch x := tr.In.(type) {
		case *engine.GroupBy:
			n.AggPartitions = x.Partitions()
		case *engine.Scan:
			st := x.Stats
			n.Scan = &ScanStats{Table: x.Rel.Name(), NumTiles: st.NumTiles,
				SegmentsLive: st.SegmentsLive, ScanCounts: st.Counts()}
		}
	}
	for _, in := range engine.Inputs(tr.In) {
		n.Children = append(n.Children, planNode(in))
	}
	return n
}

// Find returns the first node (pre-order) whose Op matches, or nil —
// a convenience for tests and tools digging into one operator.
func (n *PlanNode) Find(op string) *PlanNode {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(op); m != nil {
			return m
		}
	}
	return nil
}

// String renders the plan as an indented tree, one operator per line:
//
//	GroupBy (1 groups, 2 aggs)  [rows=4 wall=1.2ms]
//	└─ Project (2 cols)  [rows=980 wall=3.1ms]
//	   └─ Scan t0 logs (filtered)  [rows=980 wall=2.9ms; tiles 8/12 scanned, 4 skipped (33%); hits=1960 fallbacks=0]
func (n *PlanNode) String() string {
	var sb strings.Builder
	n.write(&sb, "", "")
	return sb.String()
}

func (n *PlanNode) write(sb *strings.Builder, prefix, childPrefix string) {
	sb.WriteString(prefix)
	sb.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(sb, " (%s)", n.Detail)
	}
	if n.EstRows >= 0 {
		fmt.Fprintf(sb, " est=%.0f", n.EstRows)
	}
	if n.Analyzed {
		fmt.Fprintf(sb, "  [rows=%d wall=%s", n.Rows, n.Wall.Round(time.Microsecond))
		if n.AggPartitions > 0 {
			fmt.Fprintf(sb, " agg_partitions=%d", n.AggPartitions)
		}
		if s := n.Scan; s != nil {
			if s.SegmentsLive > 0 {
				fmt.Fprintf(sb, "; segments_live=%d", s.SegmentsLive)
			}
			if s.Morsels > 0 {
				fmt.Fprintf(sb, "; morsels=%d", s.Morsels)
			}
			if s.NumTiles > 0 {
				fmt.Fprintf(sb, "; tiles %d/%d scanned, %d skipped (%.0f%%)",
					s.TilesScanned, s.NumTiles, s.TilesSkipped, 100*s.SkipRatio())
			}
			fmt.Fprintf(sb, "; hits=%d fallbacks=%d", s.ColumnHits, s.JSONBFallbacks)
			if s.DocWalks > 0 {
				fmt.Fprintf(sb, " walks=%d", s.DocWalks)
			}
			if s.CastErrors > 0 {
				fmt.Fprintf(sb, " cast_errors=%d", s.CastErrors)
			}
			if s.Batches > 0 || s.RowsNarrowed > 0 {
				fmt.Fprintf(sb, "; batches=%d vec=%d rowfb=%d narrowed=%d",
					s.Batches, s.RowsVectorized, s.RowsFallback, s.RowsNarrowed)
			}
			if s.PoolHits+s.PoolMisses > 0 {
				fmt.Fprintf(sb, "; blocks=%d io=%dB pool %d hit/%d miss decoded=%d",
					s.PoolMisses, s.StoreBytesRead, s.PoolHits, s.PoolMisses, s.BlocksDecoded)
			}
			if s.StoreRangeReads > 0 {
				fmt.Fprintf(sb, "; store reads=%d bytes=%dB coalesced=%d prefetch_hits=%d",
					s.StoreRangeReads, s.StoreBytesRead, s.StoreCoalesced, s.StorePrefetchHits)
				if s.StoreRetries > 0 {
					fmt.Fprintf(sb, " retries=%d", s.StoreRetries)
				}
			}
		}
		sb.WriteString("]")
	}
	sb.WriteByte('\n')
	for i, c := range n.Children {
		connector, next := "├─ ", "│  "
		if i == len(n.Children)-1 {
			connector, next = "└─ ", "   "
		}
		c.write(sb, childPrefix+connector, childPrefix+next)
	}
}
