package exprparse

import (
	"testing"

	"repro/internal/expr"
)

func TestParseAccess(t *testing.T) {
	tests := []struct {
		in   string
		path string
		typ  expr.SQLType
	}{
		{`data->>'l_orderkey'::BigInt`, "l_orderkey", expr.TBigInt},
		{`data->>'l_extendedprice'::Decimal`, "l_extendedprice", expr.TFloat},
		{`data->>'o_comment'`, "o_comment", expr.TText},
		{`data->'user'->>'id'::BigInt`, "user.id", expr.TBigInt},
		{`x->'geo'->>'lat'::Float`, "geo.lat", expr.TFloat},
		{`data->'user'`, "user", expr.TJSON},
		{`data->'a'->'b'->'c'`, "a.b.c", expr.TJSON},
		{`data->'hashtags'->0->>'text'`, "hashtags[0]text", expr.TText},
		{`data->'tags'->2`, "tags[2]", expr.TJSON},
		{`data->>'d'::Date`, "d", expr.TTimestamp},
		{`data->>'ok'::Boolean`, "ok", expr.TBool},
		{`data ->> 'spaced' :: BigInt`, "spaced", expr.TBigInt},
		{`data->>'it''s'`, "it's", expr.TText},
		{`data`, "", expr.TJSON}, // the whole document
		{` data `, "", expr.TJSON},
	}
	for _, tt := range tests {
		a, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if a.PathEnc != tt.path {
			t.Errorf("Parse(%q) path = %q, want %q", tt.in, a.PathEnc, tt.path)
		}
		if a.Type != tt.typ {
			t.Errorf("Parse(%q) type = %v, want %v", tt.in, a.Type, tt.typ)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`data::BigInt`, // cast requires ->>
		`dat`,          // only the data column reads bare
		`broken`,
		`->>'x'`,
		`data->>'x'::NotAType`,
		`data->'x'::BigInt`, // cast requires ->>
		`data->>'x`,
		`data->`,
		`data->>'x' extra`,
		`data->>'a'->>'b'`, // ->> must be last
		`123->>'x'`,
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse(`broken`)
}

func TestTypeFromName(t *testing.T) {
	ok := map[string]expr.SQLType{
		"BigInt": expr.TBigInt, "int": expr.TBigInt, "Integer": expr.TBigInt,
		"Float": expr.TFloat, "decimal": expr.TFloat, "NUMERIC": expr.TFloat,
		"Text": expr.TText, "varchar": expr.TText,
		"bool": expr.TBool,
		"Date": expr.TTimestamp, "timestamp": expr.TTimestamp,
	}
	for name, want := range ok {
		got, err := TypeFromName(name)
		if err != nil || got != want {
			t.Errorf("TypeFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := TypeFromName("blob"); err == nil {
		t.Error("unknown type accepted")
	}
}
