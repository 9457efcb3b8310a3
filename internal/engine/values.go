package engine

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

// RunBatches implements Operator: the rows enter as boxed batches.
func (v *Values) RunBatches(workers int, emit BatchEmitFunc) {
	emitRows(v.Res.Cols, v.Res.Rows, emit)
}
