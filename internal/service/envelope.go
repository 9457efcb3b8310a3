package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	jsontiles "repro"
)

// QueryRequest is the JSON envelope POSTed to /query. Column
// references (where.col, group_by, aggs.col, order_by.col) are
// indexes into the select list — the same convention as the fluent
// Query API the envelope compiles to.
type QueryRequest struct {
	// Table names a registered table.
	Table string `json:"table"`
	// Select lists access expressions, e.g.
	// "data->>'user'->>'id'::BigInt".
	Select []string `json:"select"`
	// Where filters rows; clauses AND together.
	Where []WhereClause `json:"where,omitempty"`
	// GroupBy and Aggs turn the query into an aggregation. For
	// aggregations, order_by indexes the output schema (group columns
	// first, then aggregates).
	GroupBy []int         `json:"group_by,omitempty"`
	Aggs    []AggClause   `json:"aggs,omitempty"`
	OrderBy []OrderClause `json:"order_by,omitempty"`
	// Limit caps the result rows when non-nil.
	Limit *int `json:"limit,omitempty"`
	// TimeoutMS overrides the server's default per-query deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Analyze includes the analyzed plan, with per-operator wall times,
	// row counts and scan statistics, in the response trailer. Every
	// query runs the same traced plan, so the flag changes only what
	// the trailer carries.
	Analyze bool `json:"analyze,omitempty"`
}

// WhereClause is one filter. Op is one of =, <>, <, <=, >, >=,
// not_null, null, like (value = pattern), in (values = constants).
type WhereClause struct {
	Col    int    `json:"col"`
	Op     string `json:"op"`
	Value  any    `json:"value,omitempty"`
	Values []any  `json:"values,omitempty"`
}

// AggClause is one aggregate. Fn is one of count, count_not_null,
// sum, avg, min, max. Col is ignored for count.
type AggClause struct {
	Fn   string `json:"fn"`
	Col  int    `json:"col"`
	Name string `json:"name,omitempty"`
}

// OrderClause is one sort key over the output schema.
type OrderClause struct {
	Col  int  `json:"col"`
	Desc bool `json:"desc,omitempty"`
}

// decodeRequest parses the envelope: one JSON object, with nothing but
// whitespace after it. Numbers decode as json.Number so integral
// constants stay int64 (a float64 round-trip would corrupt large
// BigInt comparisons).
func decodeRequest(r io.Reader) (*QueryRequest, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req QueryRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid query envelope: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return nil, fmt.Errorf("invalid query envelope: trailing data after the object: %w", err)
	}
	if req.Table == "" {
		return nil, fmt.Errorf("query envelope: missing \"table\"")
	}
	if len(req.Select) == 0 {
		return nil, fmt.Errorf("query envelope: missing \"select\"")
	}
	return &req, nil
}

// constFromJSON converts a decoded JSON constant to the Go types the
// query builder accepts: json.Number becomes int64 when integral,
// float64 otherwise.
func constFromJSON(v any) (any, error) {
	switch x := v.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i, nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, fmt.Errorf("bad numeric constant %q", x.String())
		}
		return f, nil
	case string, bool, nil:
		return x, nil
	default:
		return nil, fmt.Errorf("unsupported constant type %T", v)
	}
}

// buildQuery compiles the envelope into a fluent Query over tbl. The
// builder reports reference errors (bad column indexes, unknown ops)
// before execution.
func buildQuery(tbl *jsontiles.Table, req *QueryRequest) (*jsontiles.Query, error) {
	q := tbl.Query(req.Select...)
	for _, wc := range req.Where {
		switch wc.Op {
		case "not_null":
			q = q.WhereNotNull(wc.Col)
		case "null":
			q = q.WhereNull(wc.Col)
		case "like":
			pat, ok := wc.Value.(string)
			if !ok {
				return nil, fmt.Errorf("where op \"like\" needs a string value")
			}
			q = q.WhereLike(wc.Col, pat)
		case "in":
			if len(wc.Values) == 0 {
				return nil, fmt.Errorf("where op \"in\" needs \"values\"")
			}
			vals := make([]any, len(wc.Values))
			for i, v := range wc.Values {
				cv, err := constFromJSON(v)
				if err != nil {
					return nil, err
				}
				vals[i] = cv
			}
			q = q.WhereIn(wc.Col, vals...)
		case "=", "<>", "<", "<=", ">", ">=":
			cv, err := constFromJSON(wc.Value)
			if err != nil {
				return nil, err
			}
			q = q.WhereCmp(wc.Col, jsontiles.CmpOp(wc.Op), cv)
		default:
			return nil, fmt.Errorf("unknown where op %q", wc.Op)
		}
	}
	if len(req.Aggs) > 0 {
		if len(req.GroupBy) > 0 {
			q = q.GroupBy(req.GroupBy...)
		}
		aggs := make([]jsontiles.AggregateSpec, len(req.Aggs))
		for i, a := range req.Aggs {
			name := a.Name
			if name == "" {
				name = a.Fn
			}
			switch a.Fn {
			case "count":
				aggs[i] = jsontiles.CountAll(name)
			case "count_not_null":
				aggs[i] = jsontiles.CountNotNull(a.Col, name)
			case "sum":
				aggs[i] = jsontiles.Sum(a.Col, name)
			case "avg":
				aggs[i] = jsontiles.Avg(a.Col, name)
			case "min":
				aggs[i] = jsontiles.Min(a.Col, name)
			case "max":
				aggs[i] = jsontiles.Max(a.Col, name)
			default:
				return nil, fmt.Errorf("unknown aggregate fn %q", a.Fn)
			}
		}
		q = q.Aggregate(aggs...)
	} else if len(req.GroupBy) > 0 {
		return nil, fmt.Errorf("group_by needs at least one aggregate in \"aggs\"")
	}
	for _, o := range req.OrderBy {
		q = q.OrderBy(o.Col, o.Desc)
	}
	if req.Limit != nil {
		q = q.Limit(*req.Limit)
	}
	return q, nil
}
