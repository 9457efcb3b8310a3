package engine

import "repro/internal/vec"

// Values replays a materialized result as an operator — the bridge
// for multi-phase queries (scalar subqueries, HAVING over a prior
// aggregation joined back, TPC-H Q2/Q11/Q15/Q17/Q18/Q22).
type Values struct {
	Res *Result
}

// NewValues wraps a result.
func NewValues(res *Result) *Values { return &Values{Res: res} }

// Columns implements Operator.
func (v *Values) Columns() []ColumnDesc { return v.Res.Cols }

// RunBatches implements Operator: the rows enter as one batch of typed
// vectors on worker 0.
func (v *Values) RunBatches(workers int, emit BatchEmitFunc) {
	rows := v.Res.Rows
	if len(rows) == 0 {
		return
	}
	b := vec.Batch{Len: len(rows)}
	bufs := newBufs(v.Res.Cols)
	for c := range bufs {
		for i, row := range rows {
			bufs[c].Value(i, row[c])
		}
		b.Cols = append(b.Cols, *bufs[c].Vector())
	}
	emit(0, &b)
	releaseBufs(bufs)
}
