package storage

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/dates"
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/tile"
)

// LoaderConfig parameterizes format construction.
type LoaderConfig struct {
	// Tile holds the JSON tiles extraction settings (also reused for
	// array-slot bounds by Sinew and Shredded so path spaces match).
	Tile tile.Config
	// Reorder enables partition reordering for the Tiles format.
	Reorder bool
	// SkipTiles enables tile skipping (§4.8); the fig14 "no Skip"
	// ablation turns it off.
	SkipTiles bool
	// Metrics, when non-nil, accumulates the load-time breakdown
	// (parse/mine/extract/JSONB/reorder nanos — Figure 16) across every
	// load performed with this config.
	Metrics *tile.Metrics
}

// DefaultLoaderConfig mirrors the paper's evaluation defaults.
func DefaultLoaderConfig() LoaderConfig {
	return LoaderConfig{
		Tile:      tile.DefaultConfig(),
		Reorder:   true,
		SkipTiles: true,
	}
}

// docAccess traverses a binary JSON document along the path and
// converts the result to the desired SQL type — the optimized typed
// access expressions of §4.5/§5.4.
func docAccess(d jsonb.Doc, path keypath.Path, want expr.SQLType) expr.Value {
	cur := d
	for _, seg := range path.Segs {
		var ok bool
		if seg.IsIndex {
			cur, ok = cur.Index(seg.Index)
		} else {
			cur, ok = cur.Get(seg.Key)
		}
		if !ok {
			return expr.NullValue() // absent key or parent: SQL NULL
		}
	}
	return docValue(cur, want)
}

// docValue converts a positioned binary JSON value to the desired SQL
// type.
func docValue(cur jsonb.Doc, want expr.SQLType) expr.Value {
	if cur.IsNull() {
		return expr.NullValue()
	}
	switch want {
	case expr.TJSON:
		return expr.JSONValue(cur)
	case expr.TText:
		return expr.TextValue(cur.AsText())
	case expr.TBigInt:
		switch cur.Kind() {
		case jsonb.KindInt:
			i, _ := cur.Int64()
			return expr.IntValue(i)
		case jsonb.KindFloat:
			f, _ := cur.Float64()
			return expr.IntValue(int64(f))
		case jsonb.KindString:
			if m, sc, ok := cur.NumericString(); ok && sc == 0 {
				return expr.IntValue(m) // typed numeric string: no parse
			}
			s, _ := cur.String()
			return parseIntText(s)
		case jsonb.KindBool:
			b, _ := cur.Bool()
			if b {
				return expr.IntValue(1)
			}
			return expr.IntValue(0)
		}
		return expr.NullValue()
	case expr.TFloat:
		switch cur.Kind() {
		case jsonb.KindInt:
			i, _ := cur.Int64()
			return expr.FloatValue(float64(i))
		case jsonb.KindFloat:
			f, _ := cur.Float64()
			return expr.FloatValue(f)
		case jsonb.KindString:
			if m, sc, ok := cur.NumericString(); ok && sc <= 22 && m > -1<<53 && m < 1<<53 {
				// Both operands are exact, so the one division rounds the
				// decimal as parsing its text would; dividing by 10 once
				// per digit rounds at every step.
				return expr.FloatValue(float64(m) / math.Pow10(int(sc)))
			}
			s, _ := cur.String()
			if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
				return expr.FloatValue(f)
			}
			return expr.NullValue()
		}
		return expr.NullValue()
	case expr.TBool:
		if b, ok := cur.Bool(); ok {
			return expr.BoolValue(b)
		}
		if s, ok := cur.String(); ok {
			return expr.CastValue(expr.TextValue(s), expr.TBool)
		}
		return expr.NullValue()
	case expr.TTimestamp:
		if s, ok := cur.String(); ok {
			if m, ok := dates.Parse(s); ok {
				return expr.TimestampValue(m)
			}
		}
		return expr.NullValue()
	}
	return expr.NullValue()
}

func parseIntText(s string) expr.Value {
	s = strings.TrimSpace(s)
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return expr.IntValue(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return expr.IntValue(int64(f))
	}
	return expr.NullValue()
}

// valueAccess is docAccess over a parsed value tree (the raw-JSON
// format's per-tuple path).
func valueAccess(doc jsonvalue.Value, path keypath.Path, want expr.SQLType) expr.Value {
	v, ok := keypath.Lookup(doc, path)
	if !ok {
		return expr.NullValue()
	}
	return treeValue(v, want)
}

func treeValue(v jsonvalue.Value, want expr.SQLType) expr.Value {
	if v.IsNull() {
		return expr.NullValue()
	}
	switch want {
	case expr.TJSON:
		// The raw format has no binary form; encode on demand (this is
		// exactly the cost the format pays in the paper).
		return expr.JSONValue(jsonb.NewDoc(jsonb.Encode(v)))
	case expr.TText:
		switch v.Kind() {
		case jsonvalue.KindString:
			return expr.TextValue(v.StringVal())
		case jsonvalue.KindObject, jsonvalue.KindArray:
			return expr.TextValue(jsontext.SerializeString(v))
		case jsonvalue.KindBool:
			if v.BoolVal() {
				return expr.TextValue("true")
			}
			return expr.TextValue("false")
		case jsonvalue.KindInt:
			return expr.TextValue(strconv.FormatInt(v.IntVal(), 10))
		case jsonvalue.KindFloat:
			return expr.TextValue(strconv.FormatFloat(v.FloatVal(), 'g', -1, 64))
		}
	case expr.TBigInt:
		switch v.Kind() {
		case jsonvalue.KindInt:
			return expr.IntValue(v.IntVal())
		case jsonvalue.KindFloat:
			return expr.IntValue(int64(v.FloatVal()))
		case jsonvalue.KindString:
			return parseIntText(v.StringVal())
		case jsonvalue.KindBool:
			if v.BoolVal() {
				return expr.IntValue(1)
			}
			return expr.IntValue(0)
		}
	case expr.TFloat:
		switch v.Kind() {
		case jsonvalue.KindInt:
			return expr.FloatValue(float64(v.IntVal()))
		case jsonvalue.KindFloat:
			return expr.FloatValue(v.FloatVal())
		case jsonvalue.KindString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.StringVal()), 64); err == nil {
				return expr.FloatValue(f)
			}
		}
	case expr.TBool:
		switch v.Kind() {
		case jsonvalue.KindBool:
			return expr.BoolValue(v.BoolVal())
		case jsonvalue.KindString:
			return expr.CastValue(expr.TextValue(v.StringVal()), expr.TBool)
		}
	case expr.TTimestamp:
		if v.Kind() == jsonvalue.KindString {
			if m, ok := dates.Parse(v.StringVal()); ok {
				return expr.TimestampValue(m)
			}
		}
	}
	return expr.NullValue()
}
