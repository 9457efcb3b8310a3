package expr

import (
	"testing"

	"repro/internal/dates"
)

func row(vs ...Value) []Value { return vs }

func TestThreeValuedLogic(t *testing.T) {
	tr := NewConst(BoolValue(true))
	fa := NewConst(BoolValue(false))
	nu := NewConst(NullValue())

	tests := []struct {
		name string
		e    Expr
		want Value
	}{
		{"t and t", NewAnd(tr, tr), BoolValue(true)},
		{"t and f", NewAnd(tr, fa), BoolValue(false)},
		{"t and null", NewAnd(tr, nu), NullValue()},
		{"f and null", NewAnd(fa, nu), BoolValue(false)},
		{"null and f", NewAnd(nu, fa), BoolValue(false)},
		{"null and null", NewAnd(nu, nu), NullValue()},
		{"text and null", NewAnd(NewConst(TextValue("x")), nu), BoolValue(false)}, // as NOT and WHERE read it
		{"null and text", NewAnd(nu, NewConst(TextValue("x"))), BoolValue(false)},
		{"t or null", NewOr(tr, nu), BoolValue(true)},
		{"null or t", NewOr(nu, tr), BoolValue(true)},
		{"f or null", NewOr(fa, nu), NullValue()},
		{"null or null", NewOr(nu, nu), NullValue()},
		{"not t", NewNot(tr), BoolValue(false)},
		{"not null", NewNot(nu), NullValue()},
	}
	for _, tt := range tests {
		got := tt.e.Eval(nil)
		if got.Null != tt.want.Null || (!got.Null && got.B != tt.want.B) {
			t.Errorf("%s = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	c := func(op CmpOp, a, b Value) Value {
		return NewCmp(op, NewConst(a), NewConst(b)).Eval(nil)
	}
	if !c(EQ, IntValue(3), IntValue(3)).IsTrue() {
		t.Error("3 = 3")
	}
	if !c(LT, IntValue(2), FloatValue(2.5)).IsTrue() {
		t.Error("2 < 2.5 cross-type")
	}
	if !c(GE, TextValue("b"), TextValue("a")).IsTrue() {
		t.Error("text compare")
	}
	if !c(NE, IntValue(1), IntValue(2)).IsTrue() {
		t.Error("1 <> 2")
	}
	if got := c(EQ, NullValue(), IntValue(1)); !got.Null {
		t.Error("null = 1 must be NULL")
	}
	if got := c(EQ, NullValue(), NullValue()); !got.Null {
		t.Error("null = null must be NULL")
	}
	if !c(LE, TimestampValue(100), TimestampValue(100)).IsTrue() {
		t.Error("timestamp compare")
	}
	// Incomparable -> NULL.
	if got := c(EQ, TextValue("a"), IntValue(1)); !got.Null {
		t.Error("text vs int must be NULL")
	}
}

func TestArithmetic(t *testing.T) {
	a := func(op ArithOp, x, y Value) Value {
		return NewArith(op, NewConst(x), NewConst(y)).Eval(nil)
	}
	if got := a(Add, IntValue(2), IntValue(3)); got.Typ != TBigInt || got.I != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := a(Mul, IntValue(2), FloatValue(1.5)); got.Typ != TFloat || got.F != 3 {
		t.Errorf("2*1.5 = %v", got)
	}
	if got := a(Div, IntValue(7), IntValue(2)); got.Typ != TFloat || got.F != 3.5 {
		t.Errorf("7/2 = %v (SQL-style exactness not modeled; float division)", got)
	}
	if got := a(Div, IntValue(1), IntValue(0)); !got.Null {
		t.Error("division by zero must be NULL")
	}
	if got := a(Sub, NullValue(), IntValue(1)); !got.Null {
		t.Error("null arithmetic")
	}
}

func TestLike(t *testing.T) {
	tests := []struct {
		s, pat string
		want   bool
	}{
		{"hello world", "%world", true},
		{"hello world", "hello%", true},
		{"hello world", "%lo wo%", true},
		{"hello world", "hello world", true},
		{"hello world", "%xyz%", false},
		{"", "%", true},
	}
	for _, tt := range tests {
		got := NewLike(NewConst(TextValue(tt.s)), tt.pat).Eval(nil)
		if got.IsTrue() != tt.want {
			t.Errorf("%q LIKE %q = %v", tt.s, tt.pat, got)
		}
	}
	if got := NewLike(NewConst(NullValue()), "%x%").Eval(nil); !got.Null {
		t.Error("null LIKE")
	}
}

func TestCaseAndIn(t *testing.T) {
	col := NewCol(0, TBigInt)
	c := NewCase([]When{
		{Cond: NewCmp(EQ, col, NewConst(IntValue(1))), Result: NewConst(TextValue("one"))},
		{Cond: NewCmp(EQ, col, NewConst(IntValue(2))), Result: NewConst(TextValue("two"))},
	}, NewConst(TextValue("many")))
	if got := c.Eval(row(IntValue(1))); got.S != "one" {
		t.Errorf("case(1) = %v", got)
	}
	if got := c.Eval(row(IntValue(9))); got.S != "many" {
		t.Errorf("case(9) = %v", got)
	}
	if got := c.Eval(row(NullValue())); got.S != "many" {
		t.Errorf("case(null) falls to else: %v", got)
	}

	// The first non-NULL arm types the CASE; other arms cast to it.
	typed := NewCase([]When{
		{Cond: NewCmp(EQ, col, NewConst(IntValue(1))), Result: NewConst(NullValue())},
		{Cond: NewCmp(EQ, col, NewConst(IntValue(2))), Result: NewConst(FloatValue(2.5))},
	}, NewConst(IntValue(7)))
	if typed.Type() != TFloat {
		t.Errorf("CASE typed %s, want Float", typed.Type())
	}
	for x, want := range map[int64]string{1: "NULL", 2: "2.5", 3: "7"} {
		if got := typed.Eval(row(IntValue(x))); got.String() != want || (!got.Null && got.Typ != TFloat) {
			t.Errorf("case(%d) = %v (%s), want Float %s", x, got, got.Typ, want)
		}
	}

	in := NewIn(col, IntValue(1), IntValue(3))
	if !in.Eval(row(IntValue(3))).IsTrue() {
		t.Error("3 in (1,3)")
	}
	if in.Eval(row(IntValue(2))).IsTrue() {
		t.Error("2 in (1,3)")
	}
	if got := in.Eval(row(NullValue())); !got.Null {
		t.Error("null in list")
	}
}

func TestIsNull(t *testing.T) {
	col := NewCol(0, TBigInt)
	if !NewIsNull(col, false).Eval(row(NullValue())).IsTrue() {
		t.Error("null is null")
	}
	if NewIsNull(col, false).Eval(row(IntValue(1))).IsTrue() {
		t.Error("1 is null")
	}
	if !NewIsNull(col, true).Eval(row(IntValue(1))).IsTrue() {
		t.Error("1 is not null")
	}
}

func TestCasts(t *testing.T) {
	tests := []struct {
		in   Value
		to   SQLType
		want Value
	}{
		{TextValue("42"), TBigInt, IntValue(42)},
		{TextValue(" 42 "), TBigInt, IntValue(42)},
		{TextValue("2.5"), TFloat, FloatValue(2.5)},
		{TextValue("2.9"), TBigInt, IntValue(2)},
		{TextValue("abc"), TBigInt, NullValue()},
		{IntValue(3), TFloat, FloatValue(3)},
		{FloatValue(3.7), TBigInt, IntValue(3)},
		{IntValue(0), TBool, BoolValue(false)},
		{TextValue("true"), TBool, BoolValue(true)},
		{TextValue("2020-06-01"), TTimestamp, TimestampValue(mustDate("2020-06-01"))},
		{TextValue("nope"), TTimestamp, NullValue()},
		{IntValue(5), TText, TextValue("5")},
		{NullValue(), TBigInt, NullValue()},
	}
	for _, tt := range tests {
		got := CastValue(tt.in, tt.to)
		if got.Null != tt.want.Null {
			t.Errorf("cast %v to %v: %v, want %v", tt.in, tt.to, got, tt.want)
			continue
		}
		if !got.Null && got.String() != tt.want.String() {
			t.Errorf("cast %v to %v = %v, want %v", tt.in, tt.to, got, tt.want)
		}
	}
}

func mustDate(s string) int64 {
	m, ok := dates.Parse(s)
	if !ok {
		panic(s)
	}
	return m
}

func TestExtractYearAndSubstr(t *testing.T) {
	ts := NewConst(TimestampValue(mustDate("1997-03-15")))
	if got := NewExtractYear(ts).Eval(nil); got.I != 1997 {
		t.Errorf("extract year = %v", got)
	}
	s := NewConst(TextValue("EUROPE"))
	if got := NewSubstr(s, 1, 2).Eval(nil); got.S != "EU" {
		t.Errorf("substr = %v", got)
	}
	if got := NewSubstr(s, 6, 10).Eval(nil); got.S != "E" {
		t.Errorf("substr clamp = %q", got.S)
	}
}

func TestNullRejectedSlots(t *testing.T) {
	c0 := NewCol(0, TBigInt)
	c1 := NewCol(1, TBigInt)
	c2 := NewCol(2, TBool)

	cases := []struct {
		name string
		e    Expr
		want map[int]bool
	}{
		{"cmp", NewCmp(GT, c0, NewConst(IntValue(1))), map[int]bool{0: true}},
		{"and", NewAnd(NewCmp(GT, c0, NewConst(IntValue(1))), NewCmp(LT, c1, NewConst(IntValue(9)))),
			map[int]bool{0: true, 1: true}},
		{"or", NewOr(NewCmp(GT, c0, NewConst(IntValue(1))), NewCmp(LT, c1, NewConst(IntValue(9)))),
			map[int]bool{}},
		{"or same slot", NewOr(NewCmp(GT, c0, NewConst(IntValue(1))), NewCmp(LT, c0, NewConst(IntValue(0)))),
			map[int]bool{0: true}},
		{"is null", NewIsNull(c0, false), map[int]bool{}},
		{"is not null", NewIsNull(c0, true), map[int]bool{0: true}},
		{"not", NewNot(NewCmp(EQ, c0, NewConst(IntValue(1)))), map[int]bool{}},
		{"bare bool col", c2, map[int]bool{2: true}},
		{"arith in cmp", NewCmp(GT, NewArith(Add, c0, c1), NewConst(IntValue(1))),
			map[int]bool{0: true, 1: true}},
	}
	for _, tt := range cases {
		got := NullRejectedSlots(tt.e)
		if len(got) != len(tt.want) {
			t.Errorf("%s: got %v, want %v", tt.name, got, tt.want)
			continue
		}
		for k := range tt.want {
			if !got[k] {
				t.Errorf("%s: slot %d missing", tt.name, k)
			}
		}
	}
}
