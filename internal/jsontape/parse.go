package jsontape

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsontext"
)

// LimitError reports input that exceeds the tape's packed-word limits
// (byte offsets ≥ 4 GiB, string/number spans or container counts
// ≥ 2^28). Such a document may be valid JSON, but ingest rejects it
// like a malformed one; What names the limit.
type LimitError struct{ What string }

func (e *LimitError) Error() string {
	return fmt.Sprintf("jsontape: %s exceeds tape limits", e.What)
}

// IsLimit reports whether err is a *LimitError.
func IsLimit(err error) bool {
	var le *LimitError
	return errors.As(err, &le)
}

var (
	maxSpan = 1<<28 - 1
	maxOff  = 1<<32 - 1
)

// SetLimitsForTesting shrinks the tape encoding limits so tests can
// reach a LimitError without gigabyte inputs. The returned func
// restores the real limits.
func SetLimitsForTesting(span, off int) (restore func()) {
	oldSpan, oldOff := maxSpan, maxOff
	maxSpan, maxOff = span, off
	return func() { maxSpan, maxOff = oldSpan, oldOff }
}

// Parse parses one JSON document into d, resetting it in place (the
// tape buffer is reused across calls; d.Data aliases data). It
// accepts and rejects exactly the inputs jsontext.Parse does,
// returning the same *jsontext.SyntaxError offsets and messages,
// except for over-limit documents which return *LimitError.
func Parse(data []byte, d *Doc) error {
	d.Data = data
	if d.Tape != nil {
		d.Tape = d.Tape[:0]
	}
	if len(data) > maxOff {
		return &LimitError{"document size"}
	}
	p := tapeParser{data: data, tape: d.Tape}
	p.skipSpace()
	err := p.parseValue()
	d.Tape = p.tape
	if err != nil {
		d.Tape = d.Tape[:0]
		return err
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		d.Tape = d.Tape[:0]
		return p.errf("trailing data after document")
	}
	return nil
}

// Validate reports whether data is a valid JSON document, using a
// scratch tape. Over-limit documents return *LimitError like Parse.
func Validate(data []byte) error {
	var d Doc
	return Parse(data, &d)
}

type tapeParser struct {
	data  []byte
	pos   int
	depth int
	tape  []uint64
}

func (p *tapeParser) errf(format string, args ...any) error {
	return &jsontext.SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *tapeParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *tapeParser) parseValue() error {
	if p.pos >= len(p.data) {
		return p.errf("unexpected end of input")
	}
	switch c := p.data[p.pos]; {
	case c == '{':
		return p.parseObject()
	case c == '[':
		return p.parseArray()
	case c == '"':
		return p.parseString(KString, KStringEsc)
	case c == 't':
		return p.literal("true", KTrue)
	case c == 'f':
		return p.literal("false", KFalse)
	case c == 'n':
		return p.literal("null", KNull)
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return p.errf("unexpected character %q", c)
	}
}

func (p *tapeParser) literal(lit string, k Kind) error {
	if p.pos+len(lit) > len(p.data) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errf("invalid literal, expected %q", lit)
	}
	p.tape = append(p.tape, pack(k, 0, p.pos))
	p.pos += len(lit)
	return nil
}

// patchContainer finalizes the container word reserved at slot.
func (p *tapeParser) patchContainer(k Kind, slot, count int) error {
	end := len(p.tape)
	if count > maxSpan {
		return &LimitError{"container size"}
	}
	if end > maxOff {
		return &LimitError{"tape size"}
	}
	p.tape[slot] = pack(k, count, end)
	return nil
}

func (p *tapeParser) parseObject() error {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > jsontext.MaxDepth {
		return p.errf("nesting too deep (> %d)", jsontext.MaxDepth)
	}
	slot := len(p.tape)
	p.tape = append(p.tape, 0)
	p.pos++ // consume '{'
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return p.patchContainer(KObj, slot, 0)
	}
	count := 0
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return p.errf("expected object key string")
		}
		if err := p.parseString(KKey, KKeyEsc); err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return p.errf("expected ':' after object key")
		}
		p.pos++
		p.skipSpace()
		if err := p.parseValue(); err != nil {
			return err
		}
		count++
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return p.patchContainer(KObj, slot, count)
		default:
			return p.errf("expected ',' or '}' in object")
		}
	}
}

func (p *tapeParser) parseArray() error {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > jsontext.MaxDepth {
		return p.errf("nesting too deep (> %d)", jsontext.MaxDepth)
	}
	slot := len(p.tape)
	p.tape = append(p.tape, 0)
	p.pos++ // consume '['
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return p.patchContainer(KArr, slot, 0)
	}
	count := 0
	for {
		p.skipSpace()
		if err := p.parseValue(); err != nil {
			return err
		}
		count++
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return p.patchContainer(KArr, slot, count)
		default:
			return p.errf("expected ',' or ']' in array")
		}
	}
}

// parseString validates a string starting at the opening quote and
// appends one word with the raw content span; decoding is deferred.
// Every escape is checked independently — exactly the checks the tree
// parser's decode loop applies, so accept/reject matches even though
// no bytes are produced here (surrogate pairing never rejects in the
// oracle: an unpaired surrogate decodes to U+FFFD). A span is plain
// only when its raw bytes are its decoded content: no escapes, and
// valid UTF-8, checked once here for a span with a byte ≥ 0x80.
func (p *tapeParser) parseString(plain, escaped Kind) error {
	p.pos++ // consume '"'
	start := p.pos
	var seen byte // the OR of the span's bytes: ≥ 0x80 once any is
	// Fast path: scan for the closing quote with no escapes.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			if seen >= 0x80 && !utf8.Valid(p.data[start:p.pos]) {
				return p.emitString(escaped, start, p.pos)
			}
			return p.emitString(plain, start, p.pos)
		}
		if c == '\\' || c < 0x20 {
			goto slow
		}
		seen |= c
		p.pos++
	}
	return p.errf("unterminated string")
slow:
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			return p.emitString(escaped, start, p.pos)
		case c < 0x20:
			return p.errf("unescaped control character 0x%02x in string", c)
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return p.errf("unterminated escape")
			}
			switch e := p.data[p.pos]; e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				if err := p.checkHex4(); err != nil {
					return err
				}
			default:
				return p.errf("invalid escape character %q", e)
			}
		default:
			p.pos++
		}
	}
	return p.errf("unterminated string")
}

func (p *tapeParser) emitString(k Kind, start, end int) error {
	if end-start > maxSpan {
		return &LimitError{"string length"}
	}
	p.tape = append(p.tape, pack(k, end-start, start))
	p.pos = end + 1 // consume closing quote
	return nil
}

// checkHex4 validates the four hex digits after \u; the cursor is on
// the 'u'. Offsets match the oracle's hex4.
func (p *tapeParser) checkHex4() error {
	p.pos++ // consume 'u'
	if p.pos+4 > len(p.data) {
		return p.errf("truncated \\u escape")
	}
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return p.errf("invalid hex digit %q in \\u escape", c)
		}
	}
	p.pos += 4
	return nil
}

// parseNumber scans the RFC 8259 number grammar and classifies the
// literal:
//
//   - non-float literals of ≤ 18 digits fit int64 by construction and
//     become lazy KInt; longer ones are converted eagerly (KInt on
//     success, else they degrade to float like the oracle);
//   - float literals whose leading decimal exponent is ≤ 307 cannot
//     overflow float64 and become lazy KFloat (underflow is not an
//     error: strconv.ParseFloat flushes tiny values to ±0 silently,
//     so no lower bound is needed);
//   - everything else is converted eagerly, which doubles as the
//     range check, and stored as two-word KFloatPre.
func (p *tapeParser) parseNumber() error {
	start := p.pos
	if p.data[p.pos] == '-' {
		p.pos++
	}
	// int part
	if p.pos >= len(p.data) {
		return p.errf("truncated number")
	}
	intStart := p.pos
	switch {
	case p.data[p.pos] == '0':
		p.pos++
	case p.data[p.pos] >= '1' && p.data[p.pos] <= '9':
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
		}
	default:
		return p.errf("invalid number")
	}
	intEnd := p.pos
	isFloat := false
	fracStart, fracEnd := 0, 0
	// fraction
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		isFloat = true
		p.pos++
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return p.errf("digit expected after decimal point")
		}
		fracStart = p.pos
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
		}
		fracEnd = p.pos
	}
	// exponent
	expVal, expNeg := 0, false
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		isFloat = true
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			expNeg = p.data[p.pos] == '-'
			p.pos++
		}
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return p.errf("digit expected in exponent")
		}
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			if expVal < 1e6 {
				expVal = expVal*10 + int(p.data[p.pos]-'0')
			}
			p.pos++
		}
		if expNeg {
			expVal = -expVal
		}
	}
	if p.pos-start > maxSpan {
		return &LimitError{"number length"}
	}
	if !isFloat {
		if intEnd-intStart <= 18 {
			p.tape = append(p.tape, pack(KInt, p.pos-start, start))
			return nil
		}
		if _, err := strconv.ParseInt(string(p.data[start:p.pos]), 10, 64); err == nil {
			p.tape = append(p.tape, pack(KInt, p.pos-start, start))
			return nil
		}
		// Out-of-range integer literals degrade to float, like the
		// oracle.
	}
	// Decimal exponent of the leading significant digit: value
	// < 10^(decExp+1), so decExp ≤ 307 guarantees no overflow.
	sig := -1 // decimal exponent of first significant digit, pre-E
	for j := intStart; j < intEnd; j++ {
		if p.data[j] != '0' {
			sig = intEnd - 1 - j
			break
		}
	}
	if sig < 0 {
		sig = math.MinInt
		for j := fracStart; j < fracEnd; j++ {
			if p.data[j] != '0' {
				sig = -(j - fracStart + 1)
				break
			}
		}
		if sig == math.MinInt {
			// All digits zero: the value is ±0 regardless of exponent.
			p.tape = append(p.tape, pack(KFloat, p.pos-start, start))
			return nil
		}
	}
	if sig+expVal <= 307 {
		p.tape = append(p.tape, pack(KFloat, p.pos-start, start))
		return nil
	}
	lit := string(p.data[start:p.pos])
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil || math.IsInf(f, 0) {
		return p.errf("number %q out of range", lit)
	}
	p.tape = append(p.tape, pack(KFloatPre, p.pos-start, start))
	p.tape = append(p.tape, math.Float64bits(f))
	return nil
}
