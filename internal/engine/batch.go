// Expression evaluation over batches, shared by the operators that
// compute expressions (Project, GroupBy, OrderBy).
package engine

import (
	"repro/internal/expr"
	"repro/internal/vec"
)

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

// release hands the evaluator's scratch to the recycler.
func (ev *evaluator) release() {
	for _, sc := range ev.sc {
		if sc != nil {
			sc.Recycle()
		}
	}
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
