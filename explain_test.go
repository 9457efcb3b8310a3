package jsontiles

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/exprparse"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// mixedDocs interleaves two document structures so tuple reordering
// clusters them into distinct tiles and "status" queries can skip the
// event-only tiles.
func mixedDocs(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			out = append(out, []byte(fmt.Sprintf(
				`{"kind":"http","status":%d,"latency_ms":%d.5,"path":"/api/%d"}`,
				200+(i%3)*100, i%90, i%7)))
		} else {
			out = append(out, []byte(fmt.Sprintf(
				`{"kind":"event","name":"ev%d","payload":{"seq":%d}}`, i%5, i)))
		}
	}
	return out
}

func usersDocs(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte(fmt.Sprintf(
			`{"uid":"u%02d","plan":"%s"}`, i, []string{"free", "pro"}[i%2])))
	}
	return out
}

func ordersDocs(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte(fmt.Sprintf(
			`{"order":%d,"user":"u%02d","total":%d}`, i, i%20, 10+i%90)))
	}
	return out
}

func TestExplainJoinGroupBy(t *testing.T) {
	users, err := Load("users", usersDocs(20), opts())
	if err != nil {
		t.Fatal(err)
	}
	orders, err := Load("orders", ordersDocs(400), opts())
	if err != nil {
		t.Fatal(err)
	}

	q := orders.Query("data->>'user'", "data->>'total'::BigInt").
		Join(users, []string{"data->>'uid'", "data->>'plan'"}, 0, 0).
		GroupBy(3).
		Aggregate(CountAll("n"), Sum(1, "revenue"))

	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Find("HashJoin") == nil {
		t.Fatalf("plan lacks HashJoin:\n%s", plan)
	}
	if plan.Find("GroupBy") == nil {
		t.Fatalf("plan lacks GroupBy:\n%s", plan)
	}
	scan := plan.Find("Scan")
	if scan == nil {
		t.Fatalf("plan lacks Scan:\n%s", plan)
	}
	if scan.EstRows < 0 {
		t.Fatalf("scan node has no cardinality estimate:\n%s", plan)
	}
	// Explain must not execute: no node carries measured stats.
	if plan.Analyzed || plan.Find("HashJoin").Analyzed {
		t.Fatalf("Explain executed the plan:\n%s", plan)
	}
	if !strings.Contains(plan.String(), "HashJoin") {
		t.Fatalf("String() misses the join:\n%s", plan)
	}
}

func TestRunAnalyzedJoinGroupBy(t *testing.T) {
	users, err := Load("users", usersDocs(20), opts())
	if err != nil {
		t.Fatal(err)
	}
	orders, err := Load("orders", ordersDocs(400), opts())
	if err != nil {
		t.Fatal(err)
	}

	build := func() *Query {
		return orders.Query("data->>'user'", "data->>'total'::BigInt").
			Join(users, []string{"data->>'uid'", "data->>'plan'"}, 0, 0).
			GroupBy(3).
			Aggregate(CountAll("n"), Sum(1, "revenue")).
			OrderBy(0, false)
	}

	plain, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := build().RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != plain.NumRows() || res.NumRows() != 2 {
		t.Fatalf("analyzed rows = %d, plain rows = %d, want 2", res.NumRows(), plain.NumRows())
	}
	if stats.RowsReturned != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Wall <= 0 || stats.ExecTime <= 0 {
		t.Fatalf("missing timings: wall=%v exec=%v", stats.Wall, stats.ExecTime)
	}
	if stats.PlanTime <= 0 {
		t.Fatalf("join query should report optimizer time, got %v", stats.PlanTime)
	}

	join := stats.Plan.Find("HashJoin")
	if join == nil || !join.Analyzed {
		t.Fatalf("join node missing or unanalyzed:\n%s", stats.Plan)
	}
	if join.Rows != 400 {
		t.Fatalf("join emitted %d rows, want 400", join.Rows)
	}
	// Both scans report their table and row counts.
	seen := map[string]int64{}
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n.Op == "Scan" {
			if !n.Analyzed || n.Scan == nil {
				t.Fatalf("scan node unanalyzed:\n%s", stats.Plan)
			}
			seen[n.Scan.Table] = n.Scan.RowsScanned
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(stats.Plan)
	if seen["users"] != 20 || seen["orders"] != 400 {
		t.Fatalf("per-table rows scanned = %v", seen)
	}
	out := stats.String()
	for _, want := range []string{"HashJoin", "GroupBy", "rows=400", "users", "orders"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats.String() misses %q:\n%s", want, out)
		}
	}
}

func TestTileSkippingAccounting(t *testing.T) {
	tbl, err := Load("logs", mixedDocs(2048), opts())
	if err != nil {
		t.Fatal(err)
	}
	numTiles := int64(tbl.StorageInfo().NumTiles)
	if numTiles < 4 {
		t.Fatalf("want several tiles, got %d", numTiles)
	}

	base := obs.Default.Snapshot()
	_, stats, err := tbl.Query("data->>'status'::BigInt").
		WhereNotNull(0).
		GroupBy(0).
		Aggregate(CountAll("n")).
		RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	scan := stats.Plan.Find("Scan")
	if scan == nil || scan.Scan == nil {
		t.Fatalf("no scan stats:\n%s", stats.Plan)
	}
	s := scan.Scan

	// Every tile is accounted for, scanned or skipped.
	if s.TilesScanned+s.TilesSkipped != numTiles || s.NumTiles != numTiles {
		t.Fatalf("scanned %d + skipped %d != NumTiles %d",
			s.TilesScanned, s.TilesSkipped, numTiles)
	}
	if s.TilesSkipped == 0 {
		t.Fatalf("no tile was skipped (%d tiles)", numTiles)
	}
	if s.SkipRatio() <= 0 {
		t.Fatalf("skip ratio = %v", s.SkipRatio())
	}

	// The process-wide registry saw the same tile accounting.
	d := obs.Default.Snapshot().Diff(base)
	if d.Get("tiles_scanned")+d.Get("tiles_skipped") != numTiles {
		t.Fatalf("registry delta %d+%d != %d",
			d.Get("tiles_scanned"), d.Get("tiles_skipped"), numTiles)
	}
	if d.Get("queries_run") != 1 {
		t.Fatalf("queries_run delta = %d", d.Get("queries_run"))
	}
}

// TestExplainAnalyzeBatchCounters pins the batch-execution accounting
// in EXPLAIN ANALYZE: a filter+aggregate over tiles takes the
// vectorized path, the scan node reports batch/vectorized/fallback row
// counts that add up, and the rendered plan carries them.
func TestExplainAnalyzeBatchCounters(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(600), opts())
	if err != nil {
		t.Fatal(err)
	}

	_, stats, err := tbl.Query("data->>'stars'::BigInt").
		WhereCmp(0, Ge, 4).
		Aggregate(CountAll("n"), Sum(0, "s")).
		RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	scan := stats.Plan.Find("Scan")
	if scan == nil || scan.Scan == nil {
		t.Fatalf("no scan stats:\n%s", stats.Plan)
	}
	s := scan.Scan
	if s.Batches == 0 {
		t.Fatalf("tiles scan emitted no batches: %+v", s)
	}
	if s.RowsVectorized == 0 {
		t.Fatalf("uniform int column should vectorize: %+v", s)
	}
	if s.RowsVectorized+s.RowsFallback != s.RowsScanned {
		t.Fatalf("vec %d + fallback %d != scanned %d",
			s.RowsVectorized, s.RowsFallback, s.RowsScanned)
	}
	// The filter is one conjunct on one access, so the scan core drops
	// every row it rejects: nothing is left for a filter above the scan.
	if s.RowsNarrowed == 0 || s.RowsNarrowed != s.RowsScanned-scan.Rows {
		t.Fatalf("narrowed %d, scanned %d, emitted %d", s.RowsNarrowed, s.RowsScanned, scan.Rows)
	}
	out := stats.String()
	for _, want := range []string{"batches=", "vec=", "narrowed=", "[vectorized]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyzed plan misses %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeDocWalks pins the document-walk accounting: a text
// read of a date, which a tile serves from its documents (§4.9), walks
// each scanned row's binary JSON once, and reads the two other
// document-served paths in the same walk, one JSONB fallback per cell.
func TestExplainAnalyzeDocWalks(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(600), opts())
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := tbl.Query("data->>'date'", "data->'date'", "data->>'stars'::BigInt", "data->>'missing'").
		RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	scan := stats.Plan.Find("Scan")
	if scan == nil || scan.Scan == nil {
		t.Fatalf("no scan stats:\n%s", stats.Plan)
	}
	if s := scan.Scan; s.DocWalks != s.RowsScanned || s.JSONBFallbacks != 2*s.RowsScanned {
		t.Fatalf("walks %d, fallbacks %d, scanned %d", s.DocWalks, s.JSONBFallbacks, s.RowsScanned)
	}
	if out := stats.String(); !strings.Contains(out, " walks=600") {
		t.Fatalf("analyzed plan misses walks=600:\n%s", out)
	}
}

// TestExplainAnalyzeDictCounters pins the dictionary fast-path
// accounting: a string-equality filter plus a low-cardinality GROUP BY
// over dictionary-encoded columns must report code-space kernel
// shortcuts and code-indexed aggregation batches, and the rendered
// stats must carry them.
func TestExplainAnalyzeDictCounters(t *testing.T) {
	var out [][]byte
	levels := []string{"debug", "error", "info", "warn"}
	for i := 0; i < 600; i++ {
		out = append(out, []byte(fmt.Sprintf(
			`{"level":"%s","latency":%d}`, levels[i%4], i%100)))
	}
	tbl, err := Load("logs", out, opts())
	if err != nil {
		t.Fatal(err)
	}

	base := obs.Default.Snapshot()
	res, stats, err := tbl.Query("data->>'level'", "data->>'latency'::BigInt").
		WhereCmp(0, Eq, "error").
		GroupBy(0).
		Aggregate(CountAll("n"), Sum(1, "total")).
		RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 (only the error group)", res.NumRows())
	}
	if stats.DictKernelShortcuts == 0 {
		t.Fatalf("string filter on a dict column reported no kernel shortcuts: %+v", stats)
	}
	if stats.DictGroupByBatches == 0 {
		t.Fatalf("low-cardinality GROUP BY reported no dict batches: %+v", stats)
	}
	// Run alone, the query moves the process series by exactly its own
	// counts.
	d := obs.Default.Snapshot().Diff(base)
	if got := d.Get("dict_kernel_shortcuts"); got != stats.DictKernelShortcuts {
		t.Fatalf("dict_kernel_shortcuts moved by %d, the query counts %d", got, stats.DictKernelShortcuts)
	}
	if got := d.Get("dict_groupby_fastpath"); got != stats.DictGroupByBatches {
		t.Fatalf("dict_groupby_fastpath moved by %d, the query counts %d", got, stats.DictGroupByBatches)
	}
	rendered := stats.String()
	for _, want := range []string{"dict_kernels=", "dict_groupby="} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("stats.String() misses %q:\n%s", want, rendered)
		}
	}
}

// TestQueryStatsExactUnderConcurrency: a query's dictionary counts and
// its scan's hits and rows are its own. Three dictionary queries (=,
// LIKE, IN, each grouped) report the same figures when thirty runs of
// them overlap as when each runs alone.
func TestQueryStatsExactUnderConcurrency(t *testing.T) {
	var all [][]byte
	levels := []string{"debug", "error", "info", "warn"}
	services := []string{"api", "db", "web"}
	for i := 0; i < 2000; i++ {
		all = append(all, []byte(fmt.Sprintf(`{"level":"%s","service":"%s","latency":%d}`,
			levels[i%4], services[i%3], i%100)))
	}
	tbl, err := Load("logs", all, opts())
	if err != nil {
		t.Fatal(err)
	}
	queries := []func() *Query{
		func() *Query {
			return tbl.Query("data->>'level'", "data->>'service'").WhereCmp(0, Eq, "error").
				GroupBy(1).Aggregate(CountAll("n"))
		},
		func() *Query {
			return tbl.Query("data->>'level'", "data->>'service'").WhereLike(0, "%r%").
				GroupBy(1).Aggregate(CountAll("n"))
		},
		func() *Query {
			return tbl.Query("data->>'level'", "data->>'service'", "data->>'latency'::BigInt").WhereIn(1, "db", "web").
				GroupBy(1).Aggregate(Sum(2, "total"))
		},
	}
	type figures struct{ shortcuts, groupBatches, hits, rows int64 }
	measure := func(q int) (figures, error) {
		_, stats, err := queries[q]().RunAnalyzed()
		if err != nil {
			return figures{}, err
		}
		scan := stats.Plan.Find("Scan")
		if scan == nil || scan.Scan == nil {
			return figures{}, fmt.Errorf("query %d: no scan stats", q)
		}
		return figures{stats.DictKernelShortcuts, stats.DictGroupByBatches, scan.Scan.ColumnHits, scan.Scan.RowsScanned}, nil
	}
	alone := make([]figures, len(queries))
	for q := range queries {
		f, err := measure(q)
		if err != nil {
			t.Fatal(err)
		}
		if f.shortcuts == 0 || f.groupBatches == 0 {
			t.Fatalf("query %d alone: %+v, want dictionary kernels and grouping", q, f)
		}
		alone[q] = f
	}
	const goroutines, runs = 6, 5
	errs := make(chan error, goroutines*runs)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				q := (g + r) % len(queries)
				f, err := measure(q)
				if err == nil && f != alone[q] {
					err = fmt.Errorf("query %d concurrently: %+v, alone %+v", q, f, alone[q])
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTopKOrderByLimit pins the ORDER BY + LIMIT fusion: the plan's
// OrderBy node advertises top-K, and the fused result is identical to
// sorting everything and trimming.
func TestTopKOrderByLimit(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(500), opts())
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Query {
		return tbl.Query("data->>'review_id'", "data->>'useful'::BigInt").
			OrderBy(1, true).
			OrderBy(0, false)
	}
	full, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	topk, stats, err := build().Limit(7).RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	if topk.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7", topk.NumRows())
	}
	ob := stats.Plan.Find("OrderBy")
	if ob == nil || !strings.Contains(ob.Detail, "top-7") {
		t.Fatalf("OrderBy node not fused into top-K:\n%s", stats.Plan)
	}
	for i := 0; i < 7; i++ {
		for c := 0; c < 2; c++ {
			if topk.Value(i, c).String() != full.Value(i, c).String() {
				t.Fatalf("row %d col %d differs: topk=%v full=%v",
					i, c, topk.Value(i, c), full.Value(i, c))
			}
		}
	}
}

// TestConcurrentLoadMetrics exercises shared-Metrics accumulation from
// parallel loader workers and from concurrent tables (run with -race).
func TestConcurrentLoadMetrics(t *testing.T) {
	o := opts()
	o.Workers = 4

	var wg sync.WaitGroup
	tables := make([]*Table, 6)
	errs := make([]error, len(tables))
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], errs[i] = Load(fmt.Sprintf("t%d", i), mixedDocs(1024), o)
		}(i)
	}
	wg.Wait()

	for i, tbl := range tables {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		ls := tbl.LoadStats()
		if ls.TilesBuilt != int64(tbl.StorageInfo().NumTiles) {
			t.Fatalf("table %d: TilesBuilt %d != NumTiles %d",
				i, ls.TilesBuilt, tbl.StorageInfo().NumTiles)
		}
		if ls.Parse <= 0 || ls.Extract <= 0 || ls.WriteJSONB <= 0 {
			t.Fatalf("table %d: empty load breakdown %+v", i, ls)
		}
	}
}

// planRows lists a plan's operators pre-order with their row counts.
func planRows(n *PlanNode) []string {
	out := []string{fmt.Sprintf("%s rows=%d", n.Op, n.Rows)}
	for _, c := range n.Children {
		out = append(out, planRows(c)...)
	}
	return out
}

// TestExplainAnalyzeRowsGolden pins the per-operator row counts of a
// join + group-by + top-K: tracing counts a batch's selected rows, so
// every node reports what a row-at-a-time execution reported.
func TestExplainAnalyzeRowsGolden(t *testing.T) {
	users, err := Load("users", usersDocs(20), opts())
	if err != nil {
		t.Fatal(err)
	}
	orders, err := Load("orders", ordersDocs(400), opts())
	if err != nil {
		t.Fatal(err)
	}
	boxed := obs.RowsBoxed.Load()
	_, stats, err := orders.Query("data->>'user'", "data->>'total'::BigInt").
		Join(users, []string{"data->>'uid'", "data->>'plan'"}, 0, 0).
		WhereCmp(1, Ge, 50).
		GroupBy(3).
		Aggregate(CountAll("n"), Sum(1, "revenue")).
		OrderBy(0, false).Limit(1).RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Limit rows=1", "OrderBy rows=1", "GroupBy rows=2", "Project rows=200",
		"HashJoin rows=200", "Scan rows=20", "Scan rows=200"}
	if got := planRows(stats.Plan); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("plan rows %v, want %v\n%s", got, want, stats)
	}
	// Every operator ran on column batches, and no row was boxed: the
	// top-K buffers and the result row stay in column vectors.
	text := stats.String()
	if n := strings.Count(text, "[vectorized]"); n != len(want) {
		t.Errorf("%d of %d operators tagged [vectorized]:\n%s", n, len(want), text)
	}
	if n := obs.RowsBoxed.Load() - boxed; n != 0 {
		t.Errorf("%d rows boxed, want 0:\n%s", n, text)
	}
}

// TestRowsBoxedOnlyAtTheResultBoundary: a Scan → HashJoin → GroupBy →
// top-K plan over persisted tables boxes its result rows, nothing else
// (the top-K keeps column vectors) — and answers the same when the
// build side is replayed from boxed rows.
func TestRowsBoxedOnlyAtTheResultBoundary(t *testing.T) {
	open := func(name string, docs [][]byte) *Table {
		mem, err := Load(name, docs, opts())
		if err != nil {
			t.Fatal(err)
		}
		seg, _ := persist(t, mem, opts())
		return seg
	}
	users, orders := open("users", usersDocs(20)), open("orders", ordersDocs(400))
	usersScan := func() engine.Operator {
		return engine.NewScan(users.rel, []storage.Access{exprparse.MustParse("data->>'uid'"), exprparse.MustParse("data->>'plan'")}, nil, nil)
	}
	run := func(build engine.Operator) (*engine.Result, int64) {
		probe := engine.NewScan(orders.rel, []storage.Access{exprparse.MustParse("data->>'user'"), exprparse.MustParse("data->>'total'::BigInt")}, nil, nil)
		join := engine.NewHashJoin(build, probe, []int{0}, []int{0}, engine.InnerJoin)
		gb := engine.NewGroupBy(join, []expr.Expr{expr.NewCol(0, expr.TText)}, []string{"user"},
			[]engine.AggSpec{{Func: engine.CountStar, Name: "n"}, {Func: engine.Sum, Arg: expr.NewCol(1, expr.TBigInt), Name: "revenue"}})
		top := engine.NewOrderBy(gb, engine.OrderKey{E: expr.NewCol(0, expr.TText)})
		top.Limit = 5
		base := obs.RowsBoxed.Load()
		res := engine.Materialize(engine.NewLimit(top, 5), 2)
		return res, obs.RowsBoxed.Load() - base
	}
	// 20 groups reach the top-K; only the five rows returned are boxed,
	// by Materialize.
	res, boxed := run(usersScan())
	if len(res.Rows) != 5 || res.Rows[0][0].S != "u00" || res.Rows[0][1].I != 20 || boxed != 5 {
		t.Fatalf("scan build side: %d rows, first %v, %d rows boxed (want 5 rows, 5 boxed)", len(res.Rows), res.Rows[0], boxed)
	}
	replayed, boxed2 := run(engine.NewValues(engine.Materialize(usersScan(), 1)))
	if fmt.Sprint(replayed.Rows) != fmt.Sprint(res.Rows) || boxed2 != boxed {
		t.Fatalf("Values build side: %v (%d boxed), want %v (%d boxed)", replayed.Rows, boxed2, res.Rows, boxed)
	}
}

// TestOnlyJSONCellsAreBoxed: every batch every operator emits keeps
// each column in the backing of the type the operator declares for it,
// so only ::JSON vectors are boxed.
func TestOnlyJSONCellsAreBoxed(t *testing.T) {
	checkEveryPlanColumn(t, func(op engine.Operator, c int, v *vec.Vector) string {
		cols := op.Columns()
		if (v.Boxed != nil && v.Type != expr.TJSON) || v.Type != cols[c].Type {
			return fmt.Sprintf("%T column %d declared %s: a %s vector, boxed %v", op, c, cols[c].Type, v.Type, v.Boxed != nil)
		}
		return ""
	})
}

// TestEveryVectorHasOneBacking: every column of every batch every
// operator emits is all NULL or has exactly one backing; text holds at
// most one code slice, codes only beside an arena, and Dict only with
// both.
func TestEveryVectorHasOneBacking(t *testing.T) {
	checkEveryPlanColumn(t, func(op engine.Operator, c int, v *vec.Vector) string {
		backings, codes := 0, 0
		for _, set := range []bool{v.AllNull, v.Ints != nil, v.Floats != nil, v.Bools != nil, v.StrOff != nil, v.Boxed != nil} {
			if set {
				backings++
			}
		}
		for _, set := range []bool{v.Codes8 != nil, v.Codes16 != nil, v.Codes32 != nil} {
			if set {
				codes++
			}
		}
		switch {
		case backings != 1:
			return fmt.Sprintf("%T column %d (%s): %d backings", op, c, v.Type, backings)
		case codes > 1:
			return fmt.Sprintf("%T column %d (%s): %d code widths", op, c, v.Type, codes)
		case codes == 1 && v.StrOff == nil:
			return fmt.Sprintf("%T column %d (%s): codes without an arena", op, c, v.Type)
		case v.Dict && codes == 0:
			return fmt.Sprintf("%T column %d (%s): Dict without codes", op, c, v.Type)
		}
		return ""
	})
}

// checkEveryPlanColumn runs every TPC-H, Yelp and Twitter workload
// plan (the Tiles-* formulations too) over every format — raw JSON,
// JSONB, Sinew, Shredded, in-memory tiles and a two-segment directory
// table behind a simulated object store — at one and three workers,
// and fails when fault reports a column of any batch any operator
// emits (a non-empty message).
func checkEveryPlanColumn(t *testing.T, fault func(op engine.Operator, c int, v *vec.Vector) string) {
	t.Helper()
	type plan struct {
		name string
		run  func(storage.Relation, int) *engine.Result
	}
	tpchLines, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 7})
	yelpLines, _ := yelp.Generate(yelp.Config{Businesses: 150, Users: 300, Reviews: 1200, Tips: 300, Checkins: 150, Seed: 3})
	twitterLines := twitter.Generate(twitter.Config{Tweets: 2000, DeleteRatio: 0.4, Seed: 3})
	var tpchPlans, yelpPlans, twitterPlans []plan
	for _, q := range tpch.Queries() {
		tpchPlans = append(tpchPlans, plan{fmt.Sprintf("Q%d", q.Num), q.Run})
	}
	for _, q := range yelp.Queries() {
		yelpPlans = append(yelpPlans, plan{fmt.Sprintf("y%d", q.Num), q.Run})
	}
	for _, q := range twitter.Queries() {
		twitterPlans = append(twitterPlans, plan{fmt.Sprintf("t%d", q.Num), q.Run})
	}

	var mu sync.Mutex
	var bad []string
	defer engine.SetBatchCheck(func(op engine.Operator, b *vec.Batch) {
		for c := range b.Cols {
			if msg := fault(op, c, &b.Cols[c]); msg != "" {
				mu.Lock()
				bad = append(bad, msg)
				mu.Unlock()
			}
		}
	})()
	check := func(label string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("%s: %d batches break the invariant, first: %s", label, len(bad), bad[0])
		}
	}

	cfg := storage.DefaultLoaderConfig()
	cfg.Tile.TileSize = 256
	for _, w := range []struct {
		name  string
		lines [][]byte
		plans []plan
	}{{"tpch", tpchLines, tpchPlans}, {"yelp", yelpLines, yelpPlans}, {"twitter", twitterLines, twitterPlans}} {
		rels := map[string]storage.Relation{}
		for _, k := range []storage.FormatKind{storage.KindJSON, storage.KindJSONB, storage.KindSinew, storage.KindShredded, storage.KindTiles} {
			l, err := storage.NewLoader(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rels[string(k)], err = l.Load(w.name, w.lines, 2); err != nil {
				t.Fatal(err)
			}
		}
		o := opts()
		o.TileSize, o.CompactFanIn = 256, -1
		dir, err := OpenStore(w.name, NewFakeS3Store(nil, 0), o)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		flushBatches(t, dir, w.lines, 2)
		rels["DirTable"] = dir.rel
		for format, rel := range rels {
			for _, p := range w.plans {
				for _, workers := range []int{1, 3} {
					p.run(rel, workers)
					check(fmt.Sprintf("%s %s on %s, %d workers", w.name, p.name, format, workers))
				}
			}
		}
	}
	star, err := storage.BuildTilesStar("twitter", twitterLines, cfg, 2, twitter.IDPath(), twitter.ArrayPaths()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range twitter.Queries() {
		if q.RunStar == nil {
			continue
		}
		for _, workers := range []int{1, 3} {
			q.RunStar(star, workers)
			check(fmt.Sprintf("twitter t%d on Tiles-*, %d workers", q.Num, workers))
		}
	}
}
