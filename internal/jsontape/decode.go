package jsontape

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// bstr views b as a string without copying; b must not be mutated
// while the string is live (we only pass it to strconv, which does
// not retain it).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func parseFloatBytes(lit []byte) float64 {
	f, _ := strconv.ParseFloat(bstr(lit), 64)
	return f
}

var utf8Replacement = []byte("�")

// StringVal decodes a string or key node: escapes resolved, invalid
// UTF-8 replaced with U+FFFD — byte-identical to the tree parser's
// parseString.
func (n Node) StringVal() string {
	raw, escaped := n.RawString()
	if !escaped {
		return string(raw)
	}
	s := string(appendUnescaped(make([]byte, 0, len(raw)), raw))
	if utf8.ValidString(s) {
		return s
	}
	return strings.ToValidUTF8(s, "�")
}

// AppendString appends the decoded string content to dst and returns
// the extended slice.
func (n Node) AppendString(dst []byte) []byte {
	raw, escaped := n.RawString()
	if !escaped {
		return append(dst, raw...)
	}
	mark := len(dst)
	dst = appendUnescaped(dst, raw)
	if !utf8.Valid(dst[mark:]) {
		fixed := bytes.ToValidUTF8(dst[mark:], utf8Replacement)
		dst = append(dst[:mark], fixed...)
	}
	return dst
}

// ContentBytes returns the decoded content of a string or key node.
// The result aliases the document's backing data when no decoding is
// needed, so it must be treated as immutable.
func (n Node) ContentBytes() []byte {
	if raw, escaped := n.RawString(); !escaped {
		return raw
	}
	return n.AppendString(nil)
}

// appendUnescaped resolves the escapes in validated raw string
// content. The surrogate-pair handling mirrors the oracle's
// parseUnicodeEscape exactly: a high surrogate pairs with an
// immediately following \uXXXX low surrogate; any unpairable
// surrogate becomes U+FFFD and the follower (if any) is reprocessed
// on its own.
func appendUnescaped(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch e := raw[i+1]; e {
		case '"', '\\', '/':
			dst = append(dst, e)
			i += 2
		case 'b':
			dst = append(dst, '\b')
			i += 2
		case 'f':
			dst = append(dst, '\f')
			i += 2
		case 'n':
			dst = append(dst, '\n')
			i += 2
		case 'r':
			dst = append(dst, '\r')
			i += 2
		case 't':
			dst = append(dst, '\t')
			i += 2
		default: // 'u': validation admits no other escape byte
			r := hexRune(raw[i+2:])
			i += 6
			if !utf16.IsSurrogate(r) {
				dst = utf8.AppendRune(dst, r)
				continue
			}
			if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
				if dec := utf16.DecodeRune(r, hexRune(raw[i+2:])); dec != utf8.RuneError {
					dst = utf8.AppendRune(dst, dec)
					i += 6
					continue
				}
			}
			dst = utf8.AppendRune(dst, utf8.RuneError)
		}
	}
	return dst
}

// hexRune decodes four validated hex digits.
func hexRune(b []byte) rune {
	var r rune
	for i := 0; i < 4; i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		default:
			r = r<<4 | rune(c-'A'+10)
		}
	}
	return r
}
