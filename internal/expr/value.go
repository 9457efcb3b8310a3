// Package expr implements the expression layer of the query engine:
// SQL values, PostgreSQL-style JSON access expressions (-> and ->>),
// cast rewriting (paper §4.3), three-valued logic, and the
// null-rejection analysis that powers tile skipping (§4.8).
package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dates"
	"repro/internal/jsonb"
)

// SQLType is the type of an engine value.
type SQLType uint8

// The SQL types used by the engine. TJSON carries a binary JSON
// document (the result of the -> operator and of whole-column reads).
const (
	TNull SQLType = iota
	TBool
	TBigInt
	TFloat
	TText
	TTimestamp
	TJSON
)

func (t SQLType) String() string {
	switch t {
	case TNull:
		return "Null"
	case TBool:
		return "Bool"
	case TBigInt:
		return "BigInt"
	case TFloat:
		return "Float"
	case TText:
		return "Text"
	case TTimestamp:
		return "Timestamp"
	case TJSON:
		return "JSONB"
	default:
		return fmt.Sprintf("SQLType(%d)", uint8(t))
	}
}

// Value is one SQL value. The zero Value is SQL NULL.
type Value struct {
	Typ  SQLType
	B    bool
	I    int64 // TBigInt and TTimestamp (microseconds)
	F    float64
	S    string
	Doc  jsonb.Doc // TJSON
	Null bool
}

// NullValue returns SQL NULL.
func NullValue() Value { return Value{Typ: TNull, Null: true} }

// BoolValue returns a boolean.
func BoolValue(b bool) Value { return Value{Typ: TBool, B: b} }

// IntValue returns a BigInt.
func IntValue(i int64) Value { return Value{Typ: TBigInt, I: i} }

// FloatValue returns a Float.
func FloatValue(f float64) Value { return Value{Typ: TFloat, F: f} }

// TextValue returns a Text.
func TextValue(s string) Value { return Value{Typ: TText, S: s} }

// TimestampValue returns a Timestamp from epoch microseconds.
func TimestampValue(micros int64) Value { return Value{Typ: TTimestamp, I: micros} }

// JSONValue returns a JSONB document value.
func JSONValue(d jsonb.Doc) Value { return Value{Typ: TJSON, Doc: d} }

// IsTrue reports whether the value is boolean TRUE (SQL predicates
// treat NULL as not-true).
func (v Value) IsTrue() bool { return !v.Null && v.Typ == TBool && v.B }

// AsFloat widens a numeric value to float64.
func (v Value) AsFloat() (float64, bool) {
	if v.Null {
		return 0, false
	}
	switch v.Typ {
	case TBigInt, TTimestamp:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	}
	return 0, false
}

// String renders the value for result output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case TBool:
		if v.B {
			return "true"
		}
		return "false"
	case TBigInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TText:
		return v.S
	case TTimestamp:
		return dates.Format(v.I)
	case TJSON:
		return v.Doc.JSON()
	}
	return "NULL"
}

// Compare orders two non-null values of comparable types. It returns
// <0, 0, >0 and false when the types are incomparable. Numeric types
// compare cross-type; text compares bytewise.
func Compare(a, b Value) (int, bool) {
	if a.Null || b.Null {
		return 0, false
	}
	switch {
	case a.Typ == TText && b.Typ == TText:
		return strings.Compare(a.S, b.S), true
	case a.Typ == TBool && b.Typ == TBool:
		switch {
		case a.B == b.B:
			return 0, true
		case b.B:
			return -1, true
		default:
			return 1, true
		}
	case a.Typ == TBigInt && b.Typ == TBigInt,
		a.Typ == TTimestamp && b.Typ == TTimestamp:
		switch {
		case a.I < b.I:
			return -1, true
		case a.I > b.I:
			return 1, true
		default:
			return 0, true
		}
	default:
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if !aok || !bok {
			return 0, false
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
}

// Equal reports SQL equality of two non-null values (false, not NULL,
// for incomparable types).
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}
