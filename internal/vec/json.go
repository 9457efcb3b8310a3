package vec

import (
	"math"
	"strconv"
	"time"

	"repro/internal/dates"
	"repro/internal/expr"
	"repro/internal/jsontext"
)

// AppendJSON appends row i of v as one JSON value: the bytes
// encoding/json writes for the cell's AnyValue, with text read in place
// from its arena or dictionary — no boxing, no reflection.
func AppendJSON(dst []byte, v *Vector, i int) []byte {
	if v.Type == expr.TText && !v.IsNull(i) {
		return jsontext.AppendQuotedHTML(dst, v.StrAt(i))
	}
	x := v.Value(i)
	switch {
	case x.Null:
		return append(dst, "null"...)
	case x.Typ == expr.TBigInt:
		return strconv.AppendInt(dst, x.I, 10)
	case x.Typ == expr.TFloat:
		return AppendJSONFloat(dst, x.F)
	case x.Typ == expr.TBool:
		return strconv.AppendBool(dst, x.B)
	case x.Typ == expr.TTimestamp:
		return append(dates.ToTime(x.I).UTC().AppendFormat(append(dst, '"'), time.RFC3339Nano), '"')
	}
	return jsontext.AppendQuotedHTML(dst, x.String()) // text verbatim, a document rendered
}

// AnyValue returns x as the plain Go value a result cell is served as:
// nil, int64, float64, string, bool, RFC 3339 UTC text for a timestamp,
// a document's text; NaN and ±Inf are to_json's "NaN", "[-]Infinity".
func AnyValue(x expr.Value) any {
	if x.Null {
		return nil
	}
	switch x.Typ {
	case expr.TBigInt:
		return x.I
	case expr.TFloat:
		if s := nonFinite(x.F); s != "" {
			return s
		}
		return x.F
	case expr.TText:
		return x.S
	case expr.TBool:
		return x.B
	case expr.TTimestamp:
		return dates.ToTime(x.I).UTC().Format(time.RFC3339Nano)
	}
	return x.String()
}

// nonFinite returns AnyValue's text for NaN and ±Inf, "" for others.
func nonFinite(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	}
	return ""
}

// AppendJSONFloat appends f in encoding/json's float64 form ('f'
// notation, 'e' below 1e-6 and from 1e21 on, exponent without a
// leading zero), or a non-finite f as AnyValue's string.
func AppendJSONFloat(dst []byte, f float64) []byte {
	if s := nonFinite(f); s != "" {
		return jsontext.AppendQuotedHTML(dst, s)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
