package jsontiles

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dates"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Result is a materialized query result, kept as the column vectors
// the engine collected: Row, Value and String box the cells they
// return, AppendJSONRow encodes a row straight from the vectors.
type Result struct {
	data  *engine.Collected
	order []int32 // result row i is collected row order[i]
}

// Columns returns the output column names.
func (r *Result) Columns() []string {
	out := make([]string, len(r.data.Cols))
	for i, c := range r.data.Cols {
		out[i] = c.Name
	}
	return out
}

// NumRows returns the row count.
func (r *Result) NumRows() int { return r.data.Len }

// Row returns the values of row i.
func (r *Result) Row(i int) []Value {
	out := make([]Value, len(r.data.Vecs))
	for j := range out {
		out[j] = r.Value(i, j)
	}
	return out
}

// Value returns the single cell (i, j).
func (r *Result) Value(i, j int) Value { return Value{v: r.data.Vecs[j].Value(int(r.order[i]))} }

// AppendJSONRow appends row i as a JSON array: the bytes encoding/json
// writes for the row's Any values, without a trailing newline.
func (r *Result) AppendJSONRow(dst []byte, i int) []byte {
	dst = append(dst, '[')
	for j := range r.data.Vecs {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = vec.AppendJSON(dst, &r.data.Vecs[j], int(r.order[i]))
	}
	return append(dst, ']')
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	widths := make([]int, len(r.data.Cols))
	cells := make([][]string, r.NumRows()+1)
	cells[0] = r.Columns()
	for i, c := range cells[0] {
		widths[i] = len(c)
	}
	for i := 0; i < r.NumRows(); i++ {
		row := r.Row(i)
		line := make([]string, len(row))
		for j, v := range row {
			line[j] = v.String()
			if len(line[j]) > widths[j] {
				widths[j] = len(line[j])
			}
		}
		cells[i+1] = line
	}
	for _, line := range cells {
		for j, c := range line {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[j], c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Value is one SQL value of a query result.
type Value struct {
	v expr.Value
}

// IsNull reports SQL NULL.
func (v Value) IsNull() bool { return v.v.Null }

// Int64 returns the integer payload (0 for non-integers).
func (v Value) Int64() int64 {
	if v.v.Null {
		return 0
	}
	switch v.v.Typ {
	case expr.TBigInt, expr.TTimestamp:
		return v.v.I
	case expr.TFloat:
		return int64(v.v.F)
	}
	return 0
}

// Float64 returns the numeric payload widened to float64.
func (v Value) Float64() float64 {
	f, _ := v.v.AsFloat()
	return f
}

// Text returns the value rendered as text (strings verbatim).
func (v Value) Text() string {
	if v.v.Null {
		return ""
	}
	return v.v.String()
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return !v.v.Null && v.v.B }

// Time returns the timestamp payload.
func (v Value) Time() time.Time {
	return dates.ToTime(v.v.I)
}

// String implements fmt.Stringer ("NULL" for nulls).
func (v Value) String() string { return v.v.String() }

// Any returns the value as a plain Go type suitable for
// encoding/json (see vec.AnyValue; NaN and ±Inf are the strings "NaN",
// "Infinity" and "-Infinity"), which renders it byte for byte as
// Result.AppendJSONRow renders the cell.
func (v Value) Any() any { return vec.AnyValue(v.v) }
