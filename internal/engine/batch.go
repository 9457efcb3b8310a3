// The two adapters between rows and batches. Rows enter the engine
// through rowBatcher (inputs that cannot emit column vectors: row-only
// storage formats, replayed results, sorted output); boxRow boxes the
// rows entering a sort buffer or the top-K heap. Results leave the
// engine as columns (collect.go), boxed only by Collected.Box. Both
// count their rows in obs.RowsBoxed.
package engine

import (
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/vec"
)

// boxRow boxes physical row i of a batch into dst.
func boxRow(b *vec.Batch, i int, dst []expr.Value) {
	for c := range b.Cols {
		dst[c] = b.Cols[c].Value(i)
	}
}

// appendBoxedRows boxes a batch's selected rows into freshly allocated
// rows (one allocation per batch) and appends them.
func appendBoxedRows(rows [][]expr.Value, b *vec.Batch) [][]expr.Value {
	width, sel := len(b.Cols), b.Selected()
	cells := make([]expr.Value, len(sel)*width)
	for k, i := range sel {
		row := cells[k*width : (k+1)*width : (k+1)*width]
		boxRow(b, int(i), row)
		rows = append(rows, row)
	}
	obs.RowsBoxed.Add(int64(len(sel)))
	return rows
}

// rowBatchSize is how many pushed rows make one boxed batch.
const rowBatchSize = 1024

// rowBatcher collects pushed rows into batches of boxed vectors.
type rowBatcher struct {
	cols  [][]expr.Value
	batch vec.Batch
}

// newRowBatcher makes a batcher expecting about rows rows.
func newRowBatcher(cols []ColumnDesc, rows int) *rowBatcher {
	r := &rowBatcher{cols: make([][]expr.Value, len(cols))}
	r.batch.Cols = make([]vec.Vector, len(cols))
	for c := range cols {
		r.cols[c] = make([]expr.Value, 0, min(max(rows, 1), rowBatchSize))
		r.batch.Cols[c].Type = cols[c].Type
	}
	return r
}

func (r *rowBatcher) add(w int, row []expr.Value, emit BatchEmitFunc) {
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], row[c])
	}
	if r.batch.Len++; r.batch.Len == rowBatchSize {
		r.flush(w, emit)
	}
}

func (r *rowBatcher) flush(w int, emit BatchEmitFunc) {
	if r.batch.Len == 0 {
		return
	}
	for c := range r.cols {
		r.batch.Cols[c].Boxed = r.cols[c]
		r.cols[c] = r.cols[c][:0]
	}
	emit(w, &r.batch)
	r.batch.Len = 0
}

// emitRows pushes materialized rows as boxed batches on worker 0.
func emitRows(cols []ColumnDesc, rows [][]expr.Value, emit BatchEmitFunc) {
	rb := newRowBatcher(cols, len(rows))
	for _, row := range rows {
		rb.add(0, row, emit)
	}
	rb.flush(0, emit)
}

// compileAll compiles a list of expressions; a nil expression (the
// argument of COUNT(*)) stays nil and evaluates to a nil vector.
func compileAll(es []expr.Expr) []*vec.CompiledExpr {
	out := make([]*vec.CompiledExpr, len(es))
	for i, e := range es {
		if e != nil {
			out[i] = vec.CompileExpr(e)
		}
	}
	return out
}

// evaluator evaluates a list of compiled expressions for one worker.
type evaluator struct {
	exprs []*vec.CompiledExpr
	sc    []*vec.Scratch
	out   []*vec.Vector
}

func newEvaluator(exprs []*vec.CompiledExpr) *evaluator {
	ev := &evaluator{exprs: exprs, sc: make([]*vec.Scratch, len(exprs)), out: make([]*vec.Vector, len(exprs))}
	for i, e := range exprs {
		if e != nil {
			ev.sc[i] = e.NewScratch()
		}
	}
	return ev
}

// eval returns one vector per expression, valid until the next eval
// (column references alias the batch).
func (ev *evaluator) eval(b *vec.Batch) []*vec.Vector {
	for i, e := range ev.exprs {
		if e != nil {
			ev.out[i] = e.Eval(b, ev.sc[i])
		}
	}
	return ev.out
}
