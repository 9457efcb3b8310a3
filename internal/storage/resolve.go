package storage

import (
	"strconv"

	"repro/internal/column"
	"repro/internal/dates"
	"repro/internal/expr"
	"repro/internal/keypath"
)

// Access resolution (§4.5): computing how to serve an access is done
// once per tile (or once per relation for global schemas), cached, and
// reused for every tuple.

type resolveMode uint8

const (
	// modeNullAll: the path provably never occurs — every access is
	// NULL without touching any data (and the tile may be skippable).
	modeNullAll resolveMode = iota
	// modeFallback: always traverse the binary JSON document.
	modeFallback
	// modeColumn: serve from the materialized column; NULL entries
	// either mean NULL or divert to the document (type outliers).
	modeColumn
)

type colResolver struct {
	mode           resolveMode
	col            *column.Column
	convert        func(c *column.Column, i int) expr.Value
	fallbackOnNull bool
}

// read returns the value for row i, or needDoc=true when the caller
// must perform a document access instead. castErr reports a stored
// non-null value the requested cast could not convert (e.g. a text
// column accessed as ::BigInt with a non-numeric string).
func (r colResolver) read(i int) (v expr.Value, needDoc, castErr bool) {
	switch r.mode {
	case modeNullAll:
		return expr.NullValue(), false, false
	case modeFallback:
		return expr.Value{}, true, false
	default:
		if r.col.IsNull(i) {
			if r.fallbackOnNull {
				return expr.Value{}, true, false
			}
			return expr.NullValue(), false, false
		}
		v = r.convert(r.col, i)
		return v, false, v.Null
	}
}

// resolveColumn decides how a column of the given storage type serves
// a desired SQL type, implementing the matching rules of §4.5: exact
// matches read directly, numeric pairs use a cheap cast, Text requests
// render — except from Timestamp columns, which must never serve Text
// (§4.9; the original string is not reconstructible), and JSON
// requests always take the document.
func resolveColumn(col *column.Column, storage keypath.ValueType, hasOutliers bool, want expr.SQLType) colResolver {
	r := colResolver{mode: modeColumn, col: col, fallbackOnNull: hasOutliers}
	switch storage {
	case keypath.TypeBigInt:
		switch want {
		case expr.TBigInt:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.IntValue(c.Int(i)) }
		case expr.TFloat:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.FloatValue(float64(c.Int(i))) }
		case expr.TText:
			r.convert = func(c *column.Column, i int) expr.Value {
				return expr.TextValue(strconv.FormatInt(c.Int(i), 10))
			}
		case expr.TBool:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.BoolValue(c.Int(i) != 0) }
		default:
			return colResolver{mode: modeFallback}
		}
	case keypath.TypeDouble:
		switch want {
		case expr.TFloat:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.FloatValue(c.Float(i)) }
		case expr.TBigInt:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.IntValue(int64(c.Float(i))) }
		case expr.TText:
			r.convert = func(c *column.Column, i int) expr.Value {
				return expr.TextValue(strconv.FormatFloat(c.Float(i), 'g', -1, 64))
			}
		default:
			return colResolver{mode: modeFallback}
		}
	case keypath.TypeString:
		switch want {
		case expr.TText:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.TextValue(c.String(i)) }
		case expr.TBigInt:
			r.convert = func(c *column.Column, i int) expr.Value { return parseIntText(c.String(i)) }
		case expr.TFloat:
			r.convert = func(c *column.Column, i int) expr.Value {
				if f, err := strconv.ParseFloat(c.String(i), 64); err == nil {
					return expr.FloatValue(f)
				}
				return expr.NullValue()
			}
		case expr.TTimestamp:
			r.convert = func(c *column.Column, i int) expr.Value {
				if m, ok := dates.Parse(c.String(i)); ok {
					return expr.TimestampValue(m)
				}
				return expr.NullValue()
			}
		case expr.TBool:
			r.convert = func(c *column.Column, i int) expr.Value {
				return expr.CastValue(expr.TextValue(c.String(i)), expr.TBool)
			}
		default:
			return colResolver{mode: modeFallback}
		}
	case keypath.TypeBool:
		switch want {
		case expr.TBool:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.BoolValue(c.Bool(i)) }
		case expr.TText:
			r.convert = func(c *column.Column, i int) expr.Value {
				if c.Bool(i) {
					return expr.TextValue("true")
				}
				return expr.TextValue("false")
			}
		case expr.TBigInt:
			r.convert = func(c *column.Column, i int) expr.Value {
				if c.Bool(i) {
					return expr.IntValue(1)
				}
				return expr.IntValue(0)
			}
		default:
			return colResolver{mode: modeFallback}
		}
	case keypath.TypeTimestamp:
		switch want {
		case expr.TTimestamp:
			r.convert = func(c *column.Column, i int) expr.Value { return expr.TimestampValue(c.Int(i)) }
		default:
			// Includes TText: extracted timestamps cannot recreate the
			// exact input string — always take the document (§4.9).
			return colResolver{mode: modeFallback}
		}
	default:
		return colResolver{mode: modeFallback}
	}
	return r
}
