// Package engine implements the relational operators the evaluation
// queries run on: table scans with pushed-down JSON access expressions
// (paper §4.2), selections, projections, hash joins, hash aggregation,
// sorting and limits. Operators exchange column batches (typed vectors
// plus a selection vector); a result is collected as column vectors
// (Collect) and boxed into expr.Value rows only on request (Box).
// Scans parallelize morsel-style over tiles (or row ranges); stateful
// operators keep per-worker state and merge, so the scalability
// experiment (Figure 8) sweeps one knob.
package engine

import (
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vec"
)

// ColumnDesc names one output column of an operator.
type ColumnDesc struct {
	Name string
	Type expr.SQLType
}

// BatchEmitFunc consumes operator output. It may be called
// concurrently with distinct worker ids; the batch and its vectors are
// reused between calls and must not be retained or written. An
// operator hands the arrays behind its vectors to vec's recycler when
// its run returns, and a later run, of any query, refills them: a
// consumer copies what it keeps (Collect's buffers, GROUP BY keys).
type BatchEmitFunc func(worker int, b *vec.Batch)

// Operator is a push-based relational operator over column batches.
// RunBatches passes emit worker ids in [0, max(workers, 1)) — the
// scan's contract, which every operator forwards — so consumers index
// per-worker state without a lock.
type Operator interface {
	Columns() []ColumnDesc
	RunBatches(workers int, emit BatchEmitFunc)
}

// batchCheck, when set, sees every batch an operator emits (run).
var batchCheck atomic.Pointer[func(Operator, *vec.Batch)]

// SetBatchCheck has f called with every batch any operator emits, and
// the operator that emitted it, until restore runs. Tests assert
// invariants of the batch contract over whole plans with it; f must be
// safe for concurrent use.
func SetBatchCheck(f func(Operator, *vec.Batch)) (restore func()) {
	batchCheck.Store(&f)
	return func() { batchCheck.Store(nil) }
}

// run has op emit into emit, through the installed batch check. Every
// consumer runs its input through it.
func run(op Operator, workers int, emit BatchEmitFunc) {
	if f := batchCheck.Load(); f != nil {
		next := emit
		emit = func(w int, b *vec.Batch) {
			(*f)(op, b)
			next(w, b)
		}
	}
	op.RunBatches(workers, emit)
}

// perWorker makes one T per worker id.
func perWorker[T any](workers int, mk func() T) []T {
	out := make([]T, max(workers, 1))
	for i := range out {
		out[i] = mk()
	}
	return out
}

// Scan reads a relation with pushed-down accesses and an optional
// filter over the access slots.
type Scan struct {
	Rel      storage.Relation
	Accesses []storage.Access
	Names    []string
	// residual is the conjunction of the filter's conjuncts that
	// NewScan did not hand to a single access: what the relation's
	// scan, which applies the accesses' own filters, leaves to
	// filterEmit.
	residual expr.Expr
	// Stats, when non-nil, receives the relation's per-scan counters
	// (tiles scanned/skipped, column hits, fallbacks) and the
	// dictionary shortcuts of the residual filter. Query plans always
	// set it; nil counts into the process-wide series alone.
	Stats *obs.ScanStats
	// Ctx, when non-nil, is the per-query context: cancellation stops
	// the scan at the next morsel claim, and the tenant identity it
	// carries attributes buffer-pool charges. Nil means Background
	// (library calls without a service in front).
	Ctx context.Context
}

// ctx returns the scan's context, defaulting to Background.
func (s *Scan) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// NewScan builds a scan over its own copy of the accesses, derives the
// null-rejection flags for tile skipping (§4.8) from the filter, and
// hands every top-level conjunct that reads exactly one access slot to
// that access as its Filter, so that the relation's scan narrows on it
// (a tile scan before resolving the row's other accesses). The other
// conjuncts form the residual filter.
func NewScan(rel storage.Relation, accesses []storage.Access, names []string, filter expr.Expr) *Scan {
	s := &Scan{Rel: rel, Accesses: append([]storage.Access(nil), accesses...), Names: names}
	for i := range s.Accesses {
		s.Accesses[i].Filter = nil
	}
	if filter == nil {
		return s
	}
	for slot := range expr.NullRejectedSlots(filter) {
		if slot >= 0 && slot < len(s.Accesses) {
			s.Accesses[slot].NullRejecting = true
		}
	}
	for _, c := range conjuncts(filter, nil) {
		if slot, ok := singleSlot(c); ok && slot < len(s.Accesses) {
			s.Accesses[slot].Filter = and(s.Accesses[slot].Filter, c)
		} else {
			s.residual = and(s.residual, c)
		}
	}
	return s
}

// conjuncts appends the top-level conjuncts of e to dst, left to right.
func conjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return conjuncts(a.R, conjuncts(a.L, dst))
	}
	return append(dst, e)
}

// singleSlot reports the one slot e reads, if it reads exactly one.
func singleSlot(e expr.Expr) (int, bool) {
	slots := expr.AllSlots(e)
	if len(slots) != 1 {
		return 0, false
	}
	for s := range slots {
		return s, s >= 0
	}
	return 0, false
}

// and is l AND r, where a nil side is TRUE.
func and(l, r expr.Expr) expr.Expr {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	}
	return expr.NewAnd(l, r)
}

// MarkNullRejecting flags an access slot whose NULL cannot survive an
// operator above (e.g. an inner-join key): tiles provably lacking the
// path are skipped.
func (s *Scan) MarkNullRejecting(slot int) {
	if slot >= 0 && slot < len(s.Accesses) {
		s.Accesses[slot].NullRejecting = true
	}
}

// Columns implements Operator.
func (s *Scan) Columns() []ColumnDesc {
	out := make([]ColumnDesc, len(s.Accesses))
	for i, a := range s.Accesses {
		name := a.PathEnc
		if i < len(s.Names) && s.Names[i] != "" {
			name = s.Names[i]
		}
		out[i] = ColumnDesc{Name: name, Type: a.Type}
	}
	return out
}

// Inputs implements the plan-walking interface (a scan is a leaf).
func (s *Scan) Inputs() []Operator { return nil }

// RunBatches implements Operator. The relation's scan applies the
// accesses' filters itself, so only the residual filter narrows its
// batches' selection vectors here.
func (s *Scan) RunBatches(workers int, emit BatchEmitFunc) {
	var done func() int64
	if s.residual != nil {
		emit, done = filterEmit(s.residual, len(s.Accesses), workers, emit)
	}
	s.Rel.ScanBatches(s.ctx(), s.Accesses, workers, storage.BatchEmitFunc(emit), s.Stats)
	if done != nil {
		s.Stats.Add(&obs.ScanCounts{DictKernelShortcuts: done()})
	}
}

// filterEmit wraps emit so that it only sees the rows of each batch
// for which pred is TRUE. done, called once the input has run, hands
// the filter's scratch to the recycler and returns how many of the
// filter's kernels ran in dictionary code space.
func filterEmit(pred expr.Expr, width, workers int, emit BatchEmitFunc) (filtered BatchEmitFunc, done func() int64) {
	p, ok := vec.Compile(pred, width)
	if !ok {
		panic("engine: predicate reads a column outside its input")
	}
	type state struct {
		sc *vec.Scratch
		nb vec.Batch
	}
	states := perWorker(workers, func() state { return state{sc: p.NewScratch()} })
	filtered = func(w int, b *vec.Batch) {
		st := &states[w]
		obs.KernelDispatches.Inc()
		out := p.Sel(b, st.sc)
		if len(out) == 0 {
			return
		}
		st.nb = *b
		st.nb.Sel = out
		emit(w, &st.nb)
	}
	done = func() int64 {
		var n int64
		for _, st := range states {
			n += st.sc.TakeDictShortcuts()
			st.sc.Recycle()
		}
		return n
	}
	return filtered, done
}

// Select filters rows by a predicate.
type Select struct {
	In   Operator
	Pred expr.Expr
}

// NewSelect builds a selection.
func NewSelect(in Operator, pred expr.Expr) *Select { return &Select{In: in, Pred: pred} }

// Columns implements Operator.
func (s *Select) Columns() []ColumnDesc { return s.In.Columns() }

// Inputs implements the plan-walking interface.
func (s *Select) Inputs() []Operator { return []Operator{s.In} }

// RunBatches implements Operator.
func (s *Select) RunBatches(workers int, emit BatchEmitFunc) {
	filtered, done := filterEmit(s.Pred, len(s.In.Columns()), workers, emit)
	run(s.In, workers, filtered)
	obs.DictKernelShortcuts.Add(done())
}

// Project computes output expressions.
type Project struct {
	In    Operator
	Exprs []expr.Expr
	Names []string
}

// NewProject builds a projection.
func NewProject(in Operator, exprs []expr.Expr, names []string) *Project {
	return &Project{In: in, Exprs: exprs, Names: names}
}

// Columns implements Operator.
func (p *Project) Columns() []ColumnDesc {
	out := make([]ColumnDesc, len(p.Exprs))
	for i, e := range p.Exprs {
		name := ""
		if i < len(p.Names) {
			name = p.Names[i]
		}
		out[i] = ColumnDesc{Name: name, Type: e.Type()}
	}
	return out
}

// Inputs implements the plan-walking interface.
func (p *Project) Inputs() []Operator { return []Operator{p.In} }

// RunBatches implements Operator: column references shuffle vector
// headers, other expressions evaluate into per-worker vectors.
func (p *Project) RunBatches(workers int, emit BatchEmitFunc) {
	exprs := compileAll(p.Exprs)
	type state struct {
		ev *evaluator
		nb vec.Batch
	}
	states := perWorker(workers, func() state { return state{ev: newEvaluator(exprs)} })
	run(p.In, workers, func(w int, b *vec.Batch) {
		st := &states[w]
		st.nb = vec.Batch{Cols: st.nb.Cols[:0], Len: b.Len, Sel: b.Sel, Base: b.Base}
		for _, v := range st.ev.eval(b) {
			st.nb.Cols = append(st.nb.Cols, *v)
		}
		emit(w, &st.nb)
	})
	for _, st := range states {
		st.ev.release()
	}
}

// Materialize runs an operator and boxes all its rows — the terminal
// consumer for tests, tools and benchmarks: Collect, then Box.
func Materialize(op Operator, workers int) *Result {
	return Collect(op, workers).Box()
}

// CountRows runs an operator and counts its rows from the selection
// vectors, never boxing a cell.
func CountRows(op Operator, workers int) int64 {
	counts := perWorker(workers, func() paddedCount { return paddedCount{} })
	run(op, workers, func(w int, b *vec.Batch) { counts[w].n += int64(b.Rows()) })
	var n int64
	for i := range counts {
		n += counts[i].n
	}
	return n
}

// Result is a materialized query result.
type Result struct {
	Cols []ColumnDesc
	Rows [][]expr.Value
}

// SortRows orders the result deterministically by every column (tests
// compare results across formats); Collected.SortedOrder gives the
// same order without boxing.
func (r *Result) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		for c := range r.Rows[i] {
			if o := valueOrder(r.Rows[i][c], r.Rows[j][c]); o != 0 {
				return o < 0
			}
		}
		return false
	})
}
