package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/dates"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/exprparse"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// queryClass is one kind of query a workload issues. Library classes
// run an engine plan over a relation; classes with an envelope can
// also be POSTed to the query service, and their plan is compiled
// from the same envelope, so the HTTP rows, the library rows and the
// raw-JSON oracle rows all come from one definition.
type queryClass struct {
	name     string
	run      func(rel storage.Relation, workers int) *engine.Result
	envelope []byte // the JSON body to POST; nil for library-only classes
}

// tableName is the name every workload's table is registered under.
const tableName = "bench"

// envelopeClass builds a class from a static envelope; an envelope
// that does not marshal or compile is a bug in this file.
func envelopeClass(name string, req service.QueryRequest) queryClass {
	req.Table = tableName
	body, err := json.Marshal(&req)
	if err != nil {
		panic(fmt.Sprintf("class %s: %v", name, err))
	}
	return queryClass{
		name:     name,
		envelope: body,
		run: func(rel storage.Relation, workers int) *engine.Result {
			res, err := planEnvelope(rel, &req, workers)
			if err != nil {
				panic(fmt.Sprintf("class %s: %v", name, err))
			}
			return res
		},
	}
}

func intp(n int) *int { return &n }

// libraryClasses are the classes of a corpus's library (in-process)
// query phase: the workload package's queries plus the envelope
// classes; servedClasses are the envelope classes POSTed over HTTP.
// Both lists have an odd length on every corpus. Classes cluster by
// latency, and with equally many samples per class the overall median
// of an even number of classes falls in the gap between two clusters,
// where it is set by outliers; with an odd number it falls inside the
// middle class.
func libraryClasses(corpus string) []queryClass {
	var out []queryClass
	switch corpus {
	case "twitter":
		for _, q := range twitter.Queries() {
			out = append(out, queryClass{name: fmt.Sprintf("t%d", q.Num), run: q.Run})
		}
		out = append(out, servedClasses(corpus)...)
	case "tpch":
		for _, q := range tpch.Queries() {
			out = append(out, queryClass{name: fmt.Sprintf("q%d", q.Num), run: q.Run})
		}
		out = append(out, servedClasses(corpus)...)
	case "yelp":
		for _, q := range yelp.Queries() {
			out = append(out, queryClass{name: fmt.Sprintf("y%d", q.Num), run: q.Run})
		}
		out = append(out, servedClasses(corpus)...)
	}
	return out
}

func servedClasses(corpus string) []queryClass {
	type Q = service.QueryRequest
	type W = service.WhereClause
	type A = service.AggClause
	type O = service.OrderClause
	switch corpus {
	case "twitter":
		return []queryClass{
			envelopeClass("geo-projection", Q{
				Select:  []string{"data->>'id'::BigInt", "data->'geo'->>'lat'::Float", "data->'geo'->>'lon'::Float", "data->>'lang'"},
				Where:   []W{{Col: 1, Op: ">", Value: 0.0}, {Col: 1, Op: "<", Value: 45.0}},
				OrderBy: []O{{Col: 0}},
				Limit:   intp(150),
			}),
			envelopeClass("like-text", Q{
				Select: []string{"data->>'id'::BigInt", "data->>'text'"},
				Where:  []W{{Col: 1, Op: "like", Value: "%launch%"}},
				Aggs:   []A{{Fn: "count", Name: "tweets"}, {Fn: "min", Col: 0, Name: "first_id"}, {Fn: "max", Col: 0, Name: "last_id"}},
			}),
			envelopeClass("top-retweeted", Q{
				Select:  []string{"data->>'retweet_count'::BigInt", "data->>'id'::BigInt", "data->'user'->>'screen_name'"},
				Where:   []W{{Col: 0, Op: "not_null"}},
				OrderBy: []O{{Col: 0, Desc: true}, {Col: 1}},
				Limit:   intp(50),
			}),
			envelopeClass("lang-groupby", Q{
				Select:  []string{"data->>'lang'", "data->>'retweet_count'::BigInt", "data->'user'->>'followers_count'::BigInt"},
				Where:   []W{{Col: 1, Op: ">=", Value: 500}},
				GroupBy: []int{0},
				Aggs:    []A{{Fn: "count", Name: "tweets"}, {Fn: "avg", Col: 2, Name: "avg_followers"}},
				OrderBy: []O{{Col: 0}},
			}),
		}
	case "tpch":
		return []queryClass{
			envelopeClass("revenue-summary", Q{
				Select: []string{"data->>'l_extendedprice'::Float", "data->>'l_discount'::Float", "data->>'l_quantity'::BigInt"},
				Where:  []W{{Col: 2, Op: "<", Value: 24}, {Col: 1, Op: ">=", Value: 0.05}},
				Aggs:   []A{{Fn: "sum", Col: 0, Name: "revenue"}, {Fn: "count", Name: "lines"}},
			}),
			envelopeClass("returnflag-groupby", Q{
				Select:  []string{"data->>'l_returnflag'", "data->>'l_linestatus'", "data->>'l_quantity'::BigInt", "data->>'l_extendedprice'::Float"},
				Where:   []W{{Col: 0, Op: "not_null"}},
				GroupBy: []int{0, 1},
				Aggs:    []A{{Fn: "count", Name: "lines"}, {Fn: "sum", Col: 2, Name: "qty"}, {Fn: "avg", Col: 3, Name: "avg_price"}},
				OrderBy: []O{{Col: 0}, {Col: 1}},
			}),
			envelopeClass("top-orders", Q{
				Select:  []string{"data->>'o_orderkey'::BigInt", "data->>'o_totalprice'::Float", "data->>'o_orderdate'", "data->>'o_clerk'"},
				Where:   []W{{Col: 1, Op: ">", Value: 30000.0}},
				OrderBy: []O{{Col: 1, Desc: true}, {Col: 0}},
				Limit:   intp(200),
			}),
		}
	case "yelp":
		return []queryClass{
			// Over the tips, not the reviews: with two fast classes, three
			// of middling cost (this one, topk-orderby, like) and two slow
			// ones, the overall median falls inside the middle cluster and
			// not in a gap between clusters.
			envelopeClass("point-filter-limit", Q{
				Select: []string{"data->>'business_id'", "data->>'user_id'", "data->>'date'", "data->>'compliment_count'::BigInt"},
				Where: []W{{Col: 0, Op: "in", Values: []any{"b000003", "b000017", "b000042", "b000101", "b000256"}},
					{Col: 3, Op: "not_null"}},
				// Appended tips reuse ids of loaded ones: every column is a
				// sort key so that ties cannot reorder the cut.
				OrderBy: []O{{Col: 0}, {Col: 1}, {Col: 2}, {Col: 3}},
				Limit:   intp(10),
			}),
			envelopeClass("filter-groupby", Q{
				Select:  []string{"data->>'stars'::BigInt", "data->>'useful'::BigInt", "data->>'review_id'"},
				Where:   []W{{Col: 2, Op: "not_null"}, {Col: 1, Op: ">=", Value: 10}},
				GroupBy: []int{0},
				Aggs:    []A{{Fn: "count", Name: "reviews"}, {Fn: "avg", Col: 1, Name: "avg_useful"}},
				OrderBy: []O{{Col: 0}},
			}),
			envelopeClass("topk-orderby", Q{
				Select:  []string{"data->>'business_id'", "data->>'name'", "data->>'review_count'::BigInt", "data->>'stars'::Float"},
				Where:   []W{{Col: 3, Op: "not_null"}, {Col: 1, Op: "not_null"}},
				OrderBy: []O{{Col: 2, Desc: true}, {Col: 0}},
				Limit:   intp(20),
			}),
			envelopeClass("like", Q{
				Select:  []string{"data->>'text'", "data->>'compliment_count'::BigInt", "data->>'date'"},
				Where:   []W{{Col: 0, Op: "like", Value: "great%"}, {Col: 1, Op: "not_null"}},
				OrderBy: []O{{Col: 2}, {Col: 0}, {Col: 1}},
				Limit:   intp(100),
			}),
			envelopeClass("in-filter-summary", Q{
				Select:  []string{"data->>'state'", "data->>'review_count'::BigInt", "data->>'stars'::Float"},
				Where:   []W{{Col: 0, Op: "in", Values: []any{"AZ", "NV", "ON"}}},
				GroupBy: []int{0},
				Aggs:    []A{{Fn: "count", Name: "businesses"}, {Fn: "max", Col: 1, Name: "max_reviews"}, {Fn: "avg", Col: 2, Name: "avg_stars"}},
				OrderBy: []O{{Col: 0}},
			}),
			envelopeClass("two-aggregate-summary", Q{
				Select: []string{"data->>'city'", "data->>'stars'::Float", "data->>'review_count'::BigInt"},
				Where:  []W{{Col: 0, Op: "=", Value: "Phoenix"}},
				Aggs:   []A{{Fn: "avg", Col: 1, Name: "avg_stars"}, {Fn: "sum", Col: 2, Name: "reviews"}},
			}),
			envelopeClass("project-one-type", Q{
				Select: []string{"data->>'business_id'", "data->>'date'", "data->>'review_id'", "data->>'compliment_count'::BigInt"},
				Where:  []W{{Col: 1, Op: "not_null"}, {Col: 2, Op: "null"}, {Col: 3, Op: "null"}},
			}),
		}
	}
	return nil
}

// planEnvelope compiles a query envelope into an engine plan over rel
// and runs it: scan with the pushed-down filter, then group-by,
// order-by (fused with the limit into a top-K) and limit — the plan
// the public fluent API builds for a single-table query. Plain scans
// are sorted so that their row order does not depend on scheduling.
func planEnvelope(rel storage.Relation, req *service.QueryRequest, workers int) (*engine.Result, error) {
	accs := make([]storage.Access, len(req.Select))
	for i, s := range req.Select {
		a, err := exprparse.Parse(s)
		if err != nil {
			return nil, err
		}
		accs[i] = a
	}
	colRef := func(i int) (expr.Expr, error) {
		if i < 0 || i >= len(accs) {
			return nil, fmt.Errorf("column %d out of range", i)
		}
		return expr.NewCol(i, accs[i].Type), nil
	}
	var filter expr.Expr
	for _, wc := range req.Where {
		c, err := colRef(wc.Col)
		if err != nil {
			return nil, err
		}
		var e expr.Expr
		switch wc.Op {
		case "not_null":
			e = expr.NewIsNull(c, true)
		case "null":
			e = expr.NewIsNull(c, false)
		case "like":
			pat, ok := wc.Value.(string)
			if !ok {
				return nil, fmt.Errorf("like needs a string pattern")
			}
			e = expr.NewLike(c, pat)
		case "in":
			vals := make([]expr.Value, len(wc.Values))
			for i, x := range wc.Values {
				v, err := constOf(x)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			e = expr.NewIn(c, vals...)
		case "=", "<>", "<", "<=", ">", ">=":
			v, err := constOf(wc.Value)
			if err != nil {
				return nil, err
			}
			e = expr.NewCmp(cmpOps[wc.Op], c, expr.NewConst(v))
		default:
			return nil, fmt.Errorf("unsupported where op %q", wc.Op)
		}
		if filter == nil {
			filter = e
		} else {
			filter = expr.NewAnd(filter, e)
		}
	}
	var root engine.Operator = engine.NewScan(rel, accs, req.Select, filter)
	if len(req.Aggs) > 0 {
		groups := make([]expr.Expr, len(req.GroupBy))
		names := make([]string, len(req.GroupBy))
		for i, g := range req.GroupBy {
			c, err := colRef(g)
			if err != nil {
				return nil, err
			}
			groups[i], names[i] = c, req.Select[g]
		}
		aggs := make([]engine.AggSpec, len(req.Aggs))
		for i, a := range req.Aggs {
			fn, ok := aggFuncs[a.Fn]
			if !ok {
				return nil, fmt.Errorf("unsupported aggregate %q", a.Fn)
			}
			aggs[i] = engine.AggSpec{Func: fn, Name: a.Name}
			if fn != engine.CountStar {
				c, err := colRef(a.Col)
				if err != nil {
					return nil, err
				}
				aggs[i].Arg = c
			}
		}
		root = engine.NewGroupBy(root, groups, names, aggs)
	}
	if len(req.OrderBy) > 0 {
		cols := root.Columns()
		keys := make([]engine.OrderKey, len(req.OrderBy))
		for i, o := range req.OrderBy {
			if o.Col < 0 || o.Col >= len(cols) {
				return nil, fmt.Errorf("order-by column %d out of range", o.Col)
			}
			keys[i] = engine.OrderKey{E: expr.NewCol(o.Col, cols[o.Col].Type), Desc: o.Desc}
		}
		ob := engine.NewOrderBy(root, keys...)
		if req.Limit != nil && *req.Limit > 0 {
			ob.Limit = *req.Limit
		}
		root = ob
	}
	if req.Limit != nil {
		root = engine.NewLimit(root, *req.Limit)
	}
	res := engine.Materialize(root, workers)
	if len(req.Aggs) == 0 && len(req.OrderBy) == 0 {
		res.SortRows()
	}
	return res, nil
}

var cmpOps = map[string]expr.CmpOp{"=": expr.EQ, "<>": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE}

var aggFuncs = map[string]engine.AggFunc{
	"count": engine.CountStar, "count_not_null": engine.Count, "sum": engine.Sum,
	"avg": engine.Avg, "min": engine.Min, "max": engine.Max,
}

func constOf(v any) (expr.Value, error) {
	switch x := v.(type) {
	case int:
		return expr.IntValue(int64(x)), nil
	case float64:
		return expr.FloatValue(x), nil
	case string:
		return expr.TextValue(x), nil
	case bool:
		return expr.BoolValue(x), nil
	}
	return expr.Value{}, fmt.Errorf("unsupported constant %T", v)
}

// floatTolerance is the relative difference below which two floats
// count as equal: parallel aggregation adds in a scheduling-dependent
// order, so the last bits of a sum differ between correct runs.
const floatTolerance = 1e-9

func floatsMatch(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= floatTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func valuesMatch(a, b expr.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Typ == expr.TFloat || b.Typ == expr.TFloat {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		return aok && bok && floatsMatch(af, bf)
	}
	if a.Typ != b.Typ {
		return false
	}
	return a.String() == b.String()
}

// sameResult reports the first difference between two results, or
// nil. Rows are compared in order: every class either sorts its
// output or orders it with tie-breaking keys.
func sameResult(got, want *engine.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Errorf("row %d: %d columns, want %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if !valuesMatch(got.Rows[i][j], want.Rows[i][j]) {
				return fmt.Errorf("row %d col %d: %s, want %s", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	return nil
}

// wireMatches compares one decoded NDJSON cell (json.Number, string,
// bool or nil) with the library value it should serialize.
func wireMatches(cell any, v expr.Value) bool {
	if v.Null {
		return cell == nil
	}
	switch v.Typ {
	case expr.TBigInt:
		n, ok := cell.(json.Number)
		if !ok {
			return false
		}
		i, err := n.Int64()
		return err == nil && i == v.I
	case expr.TFloat:
		n, ok := cell.(json.Number)
		if !ok {
			return false
		}
		f, err := n.Float64()
		return err == nil && floatsMatch(f, v.F)
	case expr.TBool:
		b, ok := cell.(bool)
		return ok && b == v.B
	case expr.TTimestamp:
		s, ok := cell.(string)
		return ok && s == dates.ToTime(v.I).UTC().Format(time.RFC3339Nano)
	case expr.TText:
		s, ok := cell.(string)
		return ok && s == v.S
	default:
		s, ok := cell.(string)
		return ok && s == v.String()
	}
}
