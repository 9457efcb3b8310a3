package jsontiles

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dates"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/exprparse"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/vec"
)

// ErrUnreadable reports a query that read a block failing its checksum
// or decode: it returns no result, as an unread cell is not NULL (§4.5).
var ErrUnreadable = errors.New("jsontiles: unreadable block")

// Query is a fluent query over one or more tables. Build it from
// Table.Query, refine with Where*/Join/GroupBy/Aggregate/OrderBy/Limit
// and execute with Run. All referenced columns are PostgreSQL-style
// access expressions pushed down into the tile scan.
type Query struct {
	tables []queryTable
	joins  []optimizer.JoinSpec
	err    error

	groupBy []int
	aggs    []AggregateSpec
	orderBy []orderSpec
	limit   int
}

type queryTable struct {
	table   *Table
	alias   string
	selects []storage.Access
	names   []string
	filters []expr.Expr
}

type orderSpec struct {
	col  int
	desc bool
}

// Query starts a query selecting the given access expressions, e.g.
// "data->>'user'->>'id'::BigInt". Column indexes in later calls refer
// to positions in this select list (joined tables' columns follow in
// join order).
func (t *Table) Query(selects ...string) *Query {
	q := &Query{limit: -1}
	q.addTable(t, "t0", selects)
	return q
}

func (q *Query) addTable(t *Table, alias string, selects []string) {
	qt := queryTable{table: t, alias: alias}
	for _, s := range selects {
		a, err := exprparse.Parse(s)
		if err != nil {
			q.fail(err)
			return
		}
		qt.selects = append(qt.selects, a)
		qt.names = append(qt.names, s)
	}
	q.tables = append(q.tables, qt)
}

func (q *Query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// globalSlot maps a global select index to (table, local slot).
func (q *Query) globalSlot(col int) (int, int, bool) {
	for ti := range q.tables {
		n := len(q.tables[ti].selects)
		if col < n {
			return ti, col, true
		}
		col -= n
	}
	return 0, 0, false
}

func localCol(selects []storage.Access, i int) expr.Expr {
	return expr.NewCol(i, selects[i].Type)
}

// Join adds another table to the query with its own select list,
// equi-joined on leftCol (a global column index of the query so far)
// = rightCol (an index into the new table's select list). Join order
// is chosen by the statistics-driven optimizer, not by call order.
func (q *Query) Join(t *Table, selects []string, leftCol, rightCol int) *Query {
	lt, ls, ok := q.globalSlot(leftCol)
	if !ok {
		q.fail(fmt.Errorf("jsontiles: join column %d out of range", leftCol))
		return q
	}
	alias := fmt.Sprintf("t%d", len(q.tables))
	q.addTable(t, alias, selects)
	if rightCol < 0 || rightCol >= len(q.tables[len(q.tables)-1].selects) {
		q.fail(fmt.Errorf("jsontiles: join column %d out of range on joined table", rightCol))
		return q
	}
	q.joins = append(q.joins, optimizer.JoinSpec{
		LeftAlias: q.tables[lt].alias, LeftSlot: ls,
		RightAlias: alias, RightSlot: rightCol,
	})
	return q
}

// where attaches a filter to the table owning the column so it is
// evaluated inside (or pushed down to) that table's scan.
func (q *Query) where(col int, build func(e expr.Expr) expr.Expr) *Query {
	ti, local, ok := q.globalSlot(col)
	if !ok {
		q.fail(fmt.Errorf("jsontiles: filter column %d out of range", col))
		return q
	}
	qt := &q.tables[ti]
	qt.filters = append(qt.filters, build(localCol(qt.selects, local)))
	return q
}

// CmpOp names a comparison for WhereCmp.
type CmpOp string

// Comparison operators.
const (
	Eq CmpOp = "="
	Ne CmpOp = "<>"
	Lt CmpOp = "<"
	Le CmpOp = "<="
	Gt CmpOp = ">"
	Ge CmpOp = ">="
)

func (op CmpOp) internal() (expr.CmpOp, error) {
	switch op {
	case Eq:
		return expr.EQ, nil
	case Ne:
		return expr.NE, nil
	case Lt:
		return expr.LT, nil
	case Le:
		return expr.LE, nil
	case Gt:
		return expr.GT, nil
	case Ge:
		return expr.GE, nil
	default:
		return 0, fmt.Errorf("jsontiles: unknown comparison %q", op)
	}
}

// WhereCmp filters rows by comparing a selected column with a constant
// (int64, float64, string, bool, or time.Time).
func (q *Query) WhereCmp(col int, op CmpOp, constant any) *Query {
	iop, err := op.internal()
	if err != nil {
		q.fail(err)
		return q
	}
	cv, err := constValue(constant)
	if err != nil {
		q.fail(err)
		return q
	}
	return q.where(col, func(e expr.Expr) expr.Expr {
		return expr.NewCmp(iop, e, expr.NewConst(cv))
	})
}

// WhereNotNull keeps rows where the column is present and non-null —
// on combined collections this is the idiomatic "document type" filter
// and enables whole-tile skipping.
func (q *Query) WhereNotNull(col int) *Query {
	return q.where(col, func(e expr.Expr) expr.Expr { return expr.NewIsNull(e, true) })
}

// WhereNull keeps rows where the column is SQL NULL.
func (q *Query) WhereNull(col int) *Query {
	return q.where(col, func(e expr.Expr) expr.Expr { return expr.NewIsNull(e, false) })
}

// WhereLike filters text columns by a LIKE pattern with leading and/or
// trailing %.
func (q *Query) WhereLike(col int, pattern string) *Query {
	return q.where(col, func(e expr.Expr) expr.Expr { return expr.NewLike(e, pattern) })
}

// WhereIn keeps rows whose column equals one of the constants.
func (q *Query) WhereIn(col int, constants ...any) *Query {
	vals := make([]expr.Value, 0, len(constants))
	for _, c := range constants {
		v, err := constValue(c)
		if err != nil {
			q.fail(err)
			return q
		}
		vals = append(vals, v)
	}
	return q.where(col, func(e expr.Expr) expr.Expr { return expr.NewIn(e, vals...) })
}

func constValue(c any) (expr.Value, error) {
	switch v := c.(type) {
	case nil:
		return expr.NullValue(), nil
	case int:
		return expr.IntValue(int64(v)), nil
	case int64:
		return expr.IntValue(v), nil
	case float64:
		return expr.FloatValue(v), nil
	case string:
		return expr.TextValue(v), nil
	case bool:
		return expr.BoolValue(v), nil
	case time.Time:
		return expr.TimestampValue(dates.FromTime(v)), nil
	default:
		return expr.Value{}, fmt.Errorf("jsontiles: unsupported constant type %T", c)
	}
}

// GroupBy groups by the given global column indexes; combine with
// Aggregate.
func (q *Query) GroupBy(cols ...int) *Query {
	q.groupBy = cols
	return q
}

// AggregateSpec describes one aggregate output column.
type AggregateSpec struct {
	fn   engine.AggFunc
	col  int // -1 for CountAll
	name string
}

// CountAll counts rows per group.
func CountAll(name string) AggregateSpec {
	return AggregateSpec{fn: engine.CountStar, col: -1, name: name}
}

// CountNotNull counts non-null values of a column per group.
func CountNotNull(col int, name string) AggregateSpec {
	return AggregateSpec{fn: engine.Count, col: col, name: name}
}

// Sum sums a numeric column per group.
func Sum(col int, name string) AggregateSpec {
	return AggregateSpec{fn: engine.Sum, col: col, name: name}
}

// Avg averages a numeric column per group.
func Avg(col int, name string) AggregateSpec {
	return AggregateSpec{fn: engine.Avg, col: col, name: name}
}

// Min takes the per-group minimum.
func Min(col int, name string) AggregateSpec {
	return AggregateSpec{fn: engine.Min, col: col, name: name}
}

// Max takes the per-group maximum.
func Max(col int, name string) AggregateSpec {
	return AggregateSpec{fn: engine.Max, col: col, name: name}
}

// Aggregate sets the aggregate outputs (requires GroupBy, possibly
// with zero columns for a global aggregate).
func (q *Query) Aggregate(aggs ...AggregateSpec) *Query {
	q.aggs = aggs
	if q.groupBy == nil {
		q.groupBy = []int{}
	}
	return q
}

// OrderBy sorts the *output* rows by column index (of the final
// projection: group-by columns first, then aggregates).
func (q *Query) OrderBy(col int, desc bool) *Query {
	q.orderBy = append(q.orderBy, orderSpec{col: col, desc: desc})
	return q
}

// Limit keeps the first n output rows. A negative n fails the query.
func (q *Query) Limit(n int) *Query {
	if n < 0 {
		q.fail(fmt.Errorf("jsontiles: negative limit %d", n))
		return q
	}
	q.limit = n
	return q
}

// Run executes the query.
func (q *Query) Run() (*Result, error) {
	res, _, err := q.run(context.Background(), false)
	return res, err
}

// RunContext executes the query under ctx: cancellation or deadline
// expiry stops the scans at the next morsel boundary and returns the
// context's error, and a tenant identity attached with obs.WithTenant
// attributes the query's buffer-pool and counter accounting. The
// query service runs every request through here.
func (q *Query) RunContext(ctx context.Context) (*Result, error) {
	res, _, err := q.run(ctx, false)
	return res, err
}

// planRecord collects what a query's record needs from plan
// construction: every scan's per-scan statistics (the live-query
// registry reads progress from them while the query runs), the scanned
// table names, the GroupBy nodes, and the optimizer's plan search time
// (0 for one table).
type planRecord struct {
	stats    []*obs.ScanStats
	tables   []string
	groupBys []*engine.GroupBy
	plan     time.Duration
}

// buildPlan assembles the operator tree. Scans always receive
// per-scan statistics (they feed the live-query registry and cost one
// locked add per morsel). With instrument set, every
// constructed operator is additionally wrapped in an engine.Traced
// node measuring wall time and row counts — the plain Run path
// constructs no wrappers and pays nothing beyond the scan counters.
func (q *Query) buildPlan(ctx context.Context, instrument bool, rec *planRecord) (engine.Operator, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.tables) == 0 {
		return nil, fmt.Errorf("jsontiles: query has no table")
	}

	wrap := func(op engine.Operator, label, detail string, est float64) engine.Operator {
		var st *obs.ScanStats
		switch x := op.(type) {
		case *engine.Scan:
			x.Ctx = ctx
			st = &obs.ScanStats{}
			if tc, ok := x.Rel.(storage.TileCounter); ok {
				st.NumTiles = int64(tc.NumTiles())
			}
			if dt, ok := x.Rel.(*storage.DirTable); ok {
				st.SegmentsLive = int64(dt.NumSegments())
			}
			x.Stats = st
			rec.stats = append(rec.stats, st)
			rec.tables = append(rec.tables, x.Rel.Name())
		case *engine.GroupBy:
			rec.groupBys = append(rec.groupBys, x)
		}
		if !instrument {
			return op
		}
		// Every operator, scans of every format included, works on
		// column batches.
		tr := engine.NewTraced(label, detail+" [vectorized]", est, op)
		tr.ScanStats = st
		return tr
	}

	// Assemble per-table specs.
	specs := make([]optimizer.TableSpec, len(q.tables))
	for i, qt := range q.tables {
		if qt.table.rel == nil {
			return nil, fmt.Errorf("jsontiles: table %s is empty", qt.table.name)
		}
		var filter expr.Expr
		for _, f := range qt.filters {
			if filter == nil {
				filter = f
			} else {
				filter = expr.NewAnd(filter, f)
			}
		}
		specs[i] = optimizer.TableSpec{
			Alias: qt.alias, Rel: qt.table.rel,
			Accesses: qt.selects, Names: qt.names, Filter: filter,
		}
	}

	var root engine.Operator
	var slotOf func(global int) int
	if len(specs) == 1 {
		scan := engine.NewScan(specs[0].Rel, specs[0].Accesses, specs[0].Names, specs[0].Filter)
		detail := fmt.Sprintf("%s %s", specs[0].Alias, specs[0].Rel.Name())
		if specs[0].Filter != nil {
			detail += " (filtered)"
		}
		root = wrap(scan, "Scan", detail, float64(specs[0].Rel.NumRows()))
		slotOf = func(global int) int { return global }
	} else {
		oq := optimizer.Query{Tables: specs, Joins: q.joins, Instrument: wrap}
		start := time.Now()
		op, m, err := optimizer.Plan(oq)
		rec.plan = time.Since(start)
		if err != nil {
			return nil, err
		}
		root = op
		slotOf = func(global int) int {
			ti, local, _ := q.globalSlot(global)
			return m.Slot(q.tables[ti].alias, local)
		}
	}

	// Projection to the global select order (the join changes layout).
	width := 0
	for _, qt := range q.tables {
		width += len(qt.selects)
	}
	projExprs := make([]expr.Expr, width)
	projNames := make([]string, width)
	g := 0
	for _, qt := range q.tables {
		for local := range qt.selects {
			projExprs[g] = expr.NewCol(slotOf(g), qt.selects[local].Type)
			projNames[g] = qt.names[local]
			g++
		}
	}
	root = wrap(engine.NewProject(root, projExprs, projNames),
		"Project", fmt.Sprintf("%d cols", width), -1)

	// Aggregation.
	if q.aggs != nil {
		groups := make([]expr.Expr, len(q.groupBy))
		names := make([]string, len(q.groupBy))
		for i, col := range q.groupBy {
			groups[i] = q.colRefAfterProject(col, projExprs)
			names[i] = projNames[col]
		}
		aggSpecs := make([]engine.AggSpec, len(q.aggs))
		for i, a := range q.aggs {
			spec := engine.AggSpec{Func: a.fn, Name: a.name}
			if a.col >= 0 {
				spec.Arg = q.colRefAfterProject(a.col, projExprs)
			}
			aggSpecs[i] = spec
		}
		root = wrap(engine.NewGroupBy(root, groups, names, aggSpecs),
			"GroupBy", fmt.Sprintf("%d groups, %d aggs", len(groups), len(aggSpecs)), -1)
	}

	// Ordering and limit over the final schema. ORDER BY + LIMIT fuses
	// into a bounded top-K: no worker holds more than 2K rows (the
	// Limit node above it then trims nothing).
	if len(q.orderBy) > 0 {
		cols := root.Columns()
		keys := make([]engine.OrderKey, len(q.orderBy))
		for i, o := range q.orderBy {
			if o.col < 0 || o.col >= len(cols) {
				return nil, fmt.Errorf("jsontiles: order-by column %d out of range", o.col)
			}
			keys[i] = engine.OrderKey{E: expr.NewCol(o.col, cols[o.col].Type), Desc: o.desc}
		}
		ob := engine.NewOrderBy(root, keys...)
		detail := fmt.Sprintf("%d keys", len(keys))
		if q.limit > 0 {
			ob.Limit = q.limit
			detail = fmt.Sprintf("%d keys, top-%d", len(keys), q.limit)
		}
		root = wrap(ob, "OrderBy", detail, -1)
	}
	if q.limit >= 0 {
		root = wrap(engine.NewLimit(root, q.limit),
			"Limit", fmt.Sprintf("%d", q.limit), -1)
	}
	// The error can surface while building expressions above.
	if q.err != nil {
		return nil, q.err
	}
	return root, nil
}

// slowThreshold resolves the slow-query threshold across the query's
// tables: the first table — in the order tables were added to the
// query (the root table, then joined tables in call order) — that sets
// a positive SlowQueryThreshold provides it.
func (q *Query) slowThreshold() time.Duration {
	for _, qt := range q.tables {
		if qt.table != nil && qt.table.opts.SlowQueryThreshold > 0 {
			return qt.table.opts.SlowQueryThreshold
		}
	}
	return 0
}

// effectiveWorkers resolves the query's parallelism across every
// referenced table: the maximum of the per-table Workers settings
// (each already resolved, so a table with Workers 0 contributes
// GOMAXPROCS). The maximum — rather than the first table's value —
// means a join partner that asked for more parallelism is never
// silently throttled by the table that happened to be added first;
// the morsel scheduler keeps extra workers harmless on small inputs.
func (q *Query) effectiveWorkers() int {
	workers := 1
	for _, qt := range q.tables {
		if qt.table == nil {
			continue
		}
		if w := qt.table.opts.workers(); w > workers {
			workers = w
		}
	}
	return workers
}

// run executes the query, optionally with per-operator analysis.
// Every execution — analyzed or not — registers in the live-query
// registry, folds its wall/plan/exec times into the latency
// histograms, and leaves its timeline in the trace ring. The
// QueryStats it builds for RunAnalyzed and the slow-query log reads
// only this query's plan and timeline.
func (q *Query) run(ctx context.Context, analyze bool) (*Result, *QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tenant := obs.TenantFrom(ctx)
	slowThr := q.slowThreshold()
	// Slow-query logging needs per-operator wall times for its top-
	// operator breakdown, so a configured threshold instruments the
	// plan exactly like RunAnalyzed does.
	instrument := analyze || slowThr > 0
	start := time.Now()
	rec := &planRecord{}
	root, err := q.buildPlan(ctx, instrument, rec)
	if err != nil {
		return nil, nil, err
	}
	digest := planDigest(root)
	qh := obs.Queries.Begin(digest, rec.tables, rec.stats)
	defer qh.Finish()
	workers := q.effectiveWorkers()

	execStart := time.Now()
	res := engine.Collect(root, workers)
	exec := time.Since(execStart)
	if cerr := ctx.Err(); cerr != nil {
		// The scans stopped at a morsel boundary; the partial result is
		// discarded rather than returned as a silent subset.
		obs.QueriesCancelled.Inc()
		if tenant != "" {
			tc := obs.Tenants.Get(tenant)
			tc.Queries.Inc()
			tc.Cancelled.Inc()
		}
		return nil, nil, fmt.Errorf("jsontiles: query cancelled: %w", cerr)
	}
	for _, st := range rec.stats {
		if err := st.Err(); err != nil {
			obs.QueriesFailed.Inc()
			if tenant != "" {
				obs.Tenants.Get(tenant).Queries.Inc()
			}
			return nil, nil, fmt.Errorf("%w: %w", ErrUnreadable, err)
		}
	}
	order := vec.Iota(res.Len)
	if q.aggs == nil && len(q.orderBy) == 0 {
		order = res.SortedOrder() // deterministic output for plain scans
	}
	tr := obs.QueryTrace{ID: qh.ID, Digest: digest, Start: start, Wall: time.Since(start),
		Plan: rec.plan, Exec: exec, ExecOffset: execStart.Sub(start)}
	qh.Finish()
	obs.QueriesRun.Inc()
	obs.RowsEmitted.Add(int64(res.Len))
	if tenant != "" {
		tc := obs.Tenants.Get(tenant)
		tc.Queries.Inc()
		tc.RowsReturned.Add(int64(res.Len))
	}
	obs.QueryWallSeconds.ObserveDuration(tr.Wall)
	if tr.Plan > 0 {
		obs.QueryPlanSeconds.ObserveDuration(tr.Plan)
	}
	obs.QueryExecSeconds.ObserveDuration(tr.Exec)
	obs.QueryRowsReturned.Observe(float64(res.Len))
	obs.Traces.Add(tr)
	result := &Result{data: res, order: order}
	if !instrument {
		return result, nil, nil
	}

	stats := &QueryStats{
		Tenant:       tenant,
		Plan:         planNode(root, true),
		Wall:         tr.Wall,
		PlanTime:     tr.Plan,
		ExecTime:     tr.Exec,
		RowsReturned: int64(res.Len),
		QueryID:      qh.ID,
		PlanDigest:   digest,
	}
	for _, st := range rec.stats {
		stats.DictKernelShortcuts += st.Counts().DictKernelShortcuts
	}
	for _, gb := range rec.groupBys {
		stats.DictGroupByBatches += gb.DictBatches()
	}
	if slowThr > 0 && stats.Wall >= slowThr {
		writeSlowQueryLog(stats)
	}
	return result, stats, nil
}

func (q *Query) colRefAfterProject(col int, projExprs []expr.Expr) expr.Expr {
	if col < 0 || col >= len(projExprs) {
		q.fail(fmt.Errorf("jsontiles: column %d out of range", col))
		return expr.NewConst(expr.NullValue())
	}
	// After the projection, global index == slot index.
	return expr.NewCol(col, projExprs[col].Type())
}
