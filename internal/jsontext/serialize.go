package jsontext

import (
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsonvalue"
)

// Append serializes v as compact JSON text appended to dst. Object key
// order follows the member slice, so a value parsed by this package
// round-trips with its original key order.
func Append(dst []byte, v jsonvalue.Value) []byte {
	switch v.Kind() {
	case jsonvalue.KindNull:
		return append(dst, "null"...)
	case jsonvalue.KindBool:
		if v.BoolVal() {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case jsonvalue.KindInt:
		return strconv.AppendInt(dst, v.IntVal(), 10)
	case jsonvalue.KindFloat:
		return appendFloat(dst, v.FloatVal())
	case jsonvalue.KindString:
		return AppendQuoted(dst, v.StringVal())
	case jsonvalue.KindArray:
		dst = append(dst, '[')
		for i, e := range v.Elems() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = Append(dst, e)
		}
		return append(dst, ']')
	case jsonvalue.KindObject:
		dst = append(dst, '{')
		for i, m := range v.Members() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendQuoted(dst, m.Key)
			dst = append(dst, ':')
			dst = Append(dst, m.Value)
		}
		return append(dst, '}')
	}
	return dst
}

// Serialize returns v as compact JSON text.
func Serialize(v jsonvalue.Value) []byte { return Append(nil, v) }

// SerializeString returns v as a compact JSON string.
func SerializeString(v jsonvalue.Value) string { return string(Serialize(v)) }

// appendFloat writes a float the way RFC 8259 consumers expect:
// shortest representation that round-trips, never "Inf"/"NaN" (those
// are not representable in JSON; NaN degrades to null). Integral
// floats keep a ".0" suffix so the Int/Float distinction — which the
// tile extraction's type-paired key paths depend on — survives a
// text round trip.
func appendFloat(dst []byte, f float64) []byte { return AppendFloat(dst, f) }

// AppendFloat appends the JSON text form of a float (shared with the
// binary-format serializer so both emit identical number syntax).
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	for _, c := range dst[start:] {
		if c == '.' || c == 'e' || c == 'E' {
			return dst
		}
	}
	return append(dst, '.', '0')
}

const hexDigits = "0123456789abcdef"

// AppendQuoted appends s as a quoted, escaped JSON string; invalid
// UTF-8 becomes \ufffd, so the output is always valid JSON text.
func AppendQuoted(dst []byte, s string) []byte { return appendQuoted(dst, s, false) }

// AppendQuotedHTML appends s exactly as encoding/json writes it, with
// '<', '>', '&', U+2028 and U+2029 escaped as well.
func AppendQuotedHTML[S []byte | string](dst []byte, s S) []byte { return appendQuoted(dst, s, true) }

// quoteSafe flags the bytes appendQuoted copies verbatim: bit 1
// without HTML escaping, bit 2 with it.
var quoteSafe = func() (t [256]uint8) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = 3
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = 0, 0, 1, 1, 1
	return t
}()

func appendQuoted[S []byte | string](dst []byte, s S, html bool) []byte {
	mask := uint8(1)
	if html {
		mask = 2
	}
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if quoteSafe[c]&mask != 0 {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, "\\ufffd"...)
			case html && (r == '\u2028' || r == '\u2029'):
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
