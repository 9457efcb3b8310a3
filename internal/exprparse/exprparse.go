// Package exprparse parses PostgreSQL-style JSON access expressions —
// the syntax used throughout the paper, e.g.
//
//	data->>'l_orderkey'::BigInt
//	data->'user'->>'id'::BigInt
//	data->'hashtags'->0->>'text'
//	data
//
// into pushed-down storage accesses; the bare `data` column reads the
// whole document. The cast, when present, is folded into the access's result
// type — this *is* the cast rewriting of §4.3: instead of producing
// Text and re-parsing, the scan serves the requested type directly.
package exprparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/storage"
)

// Parse parses one access expression. The leading identifier names the
// JSON column (single-JSON-column tables make it informational).
func Parse(s string) (storage.Access, error) {
	p := &parser{s: s}
	return p.parse()
}

// MustParse is Parse for static expressions in queries and tests.
func MustParse(s string) storage.Access {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

type parser struct {
	s   string
	pos int
}

func (p *parser) parse() (storage.Access, error) {
	p.skipSpace()
	// Column identifier.
	col := p.ident()
	if col == "" {
		return storage.Access{}, p.errf("expected column identifier")
	}
	var path keypath.Path
	asText := false
	sawArrow := false
	for {
		p.skipSpace()
		if !p.consume("->") {
			break
		}
		sawArrow = true
		if p.consume(">") {
			asText = true
		}
		p.skipSpace()
		switch {
		case p.peek() == '\'':
			key, err := p.quoted()
			if err != nil {
				return storage.Access{}, err
			}
			path = path.Child(key)
		case p.peek() >= '0' && p.peek() <= '9' || p.peek() == '-':
			idx, err := p.number()
			if err != nil {
				return storage.Access{}, err
			}
			path = path.Slot(idx)
		default:
			return storage.Access{}, p.errf("expected 'key' or index after arrow")
		}
		if asText {
			break // ->> must be the last step
		}
	}
	if !sawArrow && col != "data" {
		return storage.Access{}, p.errf("expected -> or ->> operator")
	}
	p.skipSpace()
	// Optional cast.
	typ := expr.TJSON
	if asText {
		typ = expr.TText
	}
	if p.consume("::") {
		p.skipSpace()
		name := p.ident()
		t, err := TypeFromName(name)
		if err != nil {
			return storage.Access{}, err
		}
		if !asText {
			return storage.Access{}, p.errf("cast requires the ->> (text) access")
		}
		typ = t
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return storage.Access{}, p.errf("trailing input %q", p.s[p.pos:])
	}
	return storage.NewAccessPath(typ, path), nil
}

// TypeFromName maps SQL type names to engine types.
func TypeFromName(name string) (expr.SQLType, error) {
	switch strings.ToLower(name) {
	case "bigint", "int", "integer", "int8", "int4":
		return expr.TBigInt, nil
	case "float", "double", "decimal", "numeric", "float8", "real":
		return expr.TFloat, nil
	case "text", "varchar", "string":
		return expr.TText, nil
	case "bool", "boolean":
		return expr.TBool, nil
	case "date", "timestamp", "time", "timestamptz":
		return expr.TTimestamp, nil
	default:
		return expr.TNull, fmt.Errorf("exprparse: unknown type %q", name)
	}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("exprparse: %s at offset %d in %q", fmt.Sprintf(format, args...), p.pos, p.s)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.s) {
		return p.s[p.pos]
	}
	return 0
}

func (p *parser) consume(tok string) bool {
	if strings.HasPrefix(p.s[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(p.pos > start && c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.s[start:p.pos]
}

func (p *parser) quoted() (string, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == '\'' {
			// Doubled quote escapes a quote (SQL).
			if p.pos+1 < len(p.s) && p.s[p.pos+1] == '\'' {
				sb.WriteByte('\'')
				p.pos += 2
				continue
			}
			p.pos++
			return sb.String(), nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return "", p.errf("unterminated string")
}

func (p *parser) number() (int, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	n, err := strconv.Atoi(p.s[start:p.pos])
	if err != nil {
		return 0, p.errf("bad array index")
	}
	return n, nil
}
