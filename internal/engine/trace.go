package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/vec"
)

// Traced wraps an operator for EXPLAIN ANALYZE: it measures the
// operator's inclusive wall time and counts emitted rows. The root
// package wraps every operator of every query's plan, so a plain run
// and an analyzed run execute, and digest, the same tree. Row counting
// uses cache-line-padded per-worker slots, summed once after the input
// drains.
type Traced struct {
	// Label names the operator ("Scan", "HashJoin", "GroupBy", ...).
	Label string
	// Detail is a human-readable operator description for the plan
	// printer (table name, join sides, key counts).
	Detail string
	// EstRows is the optimizer's cardinality estimate (< 0 when the
	// operator has none).
	EstRows float64
	// In is the wrapped operator.
	In Operator

	wallNanos atomic.Int64
	rowCount  atomic.Int64
	ran       atomic.Bool
}

// NewTraced wraps in with a tracing node.
func NewTraced(label, detail string, estRows float64, in Operator) *Traced {
	return &Traced{Label: label, Detail: detail, EstRows: estRows, In: in}
}

// Columns implements Operator.
func (t *Traced) Columns() []ColumnDesc { return t.In.Columns() }

// Inputs implements the plan-walking interface.
func (t *Traced) Inputs() []Operator { return []Operator{t.In} }

type paddedCount struct {
	n int64
	_ [56]byte // separate counters onto distinct cache lines
}

// RunBatches implements Operator, counting each batch's selected rows.
func (t *Traced) RunBatches(workers int, emit BatchEmitFunc) {
	counts := perWorker(workers, func() paddedCount { return paddedCount{} })
	start := time.Now()
	run(t.In, workers, func(w int, b *vec.Batch) {
		counts[w].n += int64(b.Rows())
		emit(w, b)
	})
	t.wallNanos.Add(time.Since(start).Nanoseconds())
	var total int64
	for i := range counts {
		total += counts[i].n
	}
	t.rowCount.Add(total)
	t.ran.Store(true)
}

// WallTime returns the operator's inclusive wall time (its whole
// subtree, as push execution nests child Runs inside the parent's).
func (t *Traced) WallTime() time.Duration {
	return time.Duration(t.wallNanos.Load())
}

// Rows returns the number of rows the operator emitted.
func (t *Traced) Rows() int64 { return t.rowCount.Load() }

// Ran reports whether the operator executed (false after Explain).
func (t *Traced) Ran() bool { return t.ran.Load() }

// Inputs returns op's input operators when it exposes them (every
// engine operator does; foreign operators return none).
func Inputs(op Operator) []Operator {
	if h, ok := op.(interface{ Inputs() []Operator }); ok {
		return h.Inputs()
	}
	return nil
}
