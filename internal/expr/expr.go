package expr

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/dates"
)

// Expr is an expression evaluated against a row of engine values.
type Expr interface {
	// Eval computes the value for the given input row.
	Eval(row []Value) Value
	// Type is the static result type.
	Type() SQLType
}

// Col references slot idx of the input row.
type Col struct {
	Idx int
	Typ SQLType
}

// NewCol returns a column reference.
func NewCol(idx int, t SQLType) *Col { return &Col{Idx: idx, Typ: t} }

// Eval implements Expr.
func (c *Col) Eval(row []Value) Value { return row[c.Idx] }

// Type implements Expr.
func (c *Col) Type() SQLType { return c.Typ }

// Const is a literal.
type Const struct{ V Value }

// NewConst returns a literal expression.
func NewConst(v Value) *Const { return &Const{V: v} }

// Eval implements Expr.
func (c *Const) Eval([]Value) Value { return c.V }

// Type implements Expr.
func (c *Const) Type() SQLType { return c.V.Typ }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// Cmp compares two expressions with SQL semantics: NULL operands
// yield NULL.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp returns a comparison.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Eval implements Expr.
func (c *Cmp) Eval(row []Value) Value {
	l := c.L.Eval(row)
	r := c.R.Eval(row)
	if l.Null || r.Null {
		return NullValue()
	}
	cv, ok := Compare(l, r)
	if !ok {
		// Incomparable types: SQL would reject at plan time; evaluate
		// to NULL to stay total.
		return NullValue()
	}
	var b bool
	switch c.Op {
	case EQ:
		b = cv == 0
	case NE:
		b = cv != 0
	case LT:
		b = cv < 0
	case LE:
		b = cv <= 0
	case GT:
		b = cv > 0
	case GE:
		b = cv >= 0
	}
	return BoolValue(b)
}

// Type implements Expr.
func (c *Cmp) Type() SQLType { return TBool }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// Arith computes arithmetic with numeric widening: BigInt op BigInt
// stays BigInt (except Div), anything with Float widens to Float.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith returns an arithmetic expression.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Eval implements Expr.
func (a *Arith) Eval(row []Value) Value {
	op, l, r := a.Op, a.L.Eval(row), a.R.Eval(row)
	if l.Null || r.Null {
		return NullValue()
	}
	if l.Typ == TBigInt && r.Typ == TBigInt && op != Div {
		switch op {
		case Add:
			return IntValue(l.I + r.I)
		case Sub:
			return IntValue(l.I - r.I)
		case Mul:
			return IntValue(l.I * r.I)
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return NullValue()
	}
	switch op {
	case Add:
		return FloatValue(lf + rf)
	case Sub:
		return FloatValue(lf - rf)
	case Mul:
		return FloatValue(lf * rf)
	case Div:
		if rf == 0 {
			return NullValue()
		}
		return FloatValue(lf / rf)
	}
	return NullValue()
}

// Type implements Expr.
func (a *Arith) Type() SQLType {
	if a.Op != Div && a.L.Type() == TBigInt && a.R.Type() == TBigInt {
		return TBigInt
	}
	return TFloat
}

// And is SQL three-valued conjunction. A non-null operand that is not
// TRUE, a value of another type included, makes it FALSE: such a value
// reads as FALSE under NOT and in WHERE too.
type And struct{ L, R Expr }

// NewAnd returns a conjunction.
func NewAnd(l, r Expr) *And { return &And{L: l, R: r} }

// Eval implements Expr.
func (a *And) Eval(row []Value) Value {
	l := a.L.Eval(row)
	if !l.Null && !l.IsTrue() {
		return BoolValue(false) // short circuit
	}
	r := a.R.Eval(row)
	switch {
	case !r.Null && !r.IsTrue():
		return BoolValue(false)
	case l.Null || r.Null:
		return NullValue()
	default:
		return BoolValue(true)
	}
}

// Type implements Expr.
func (a *And) Type() SQLType { return TBool }

// Or is SQL three-valued disjunction.
type Or struct{ L, R Expr }

// NewOr returns a disjunction.
func NewOr(l, r Expr) *Or { return &Or{L: l, R: r} }

// Eval implements Expr.
func (o *Or) Eval(row []Value) Value {
	l := o.L.Eval(row)
	if l.IsTrue() {
		return BoolValue(true)
	}
	r := o.R.Eval(row)
	switch {
	case r.IsTrue():
		return BoolValue(true)
	case l.Null || r.Null:
		return NullValue()
	default:
		return BoolValue(l.B || r.B)
	}
}

// Type implements Expr.
func (o *Or) Type() SQLType { return TBool }

// Not is SQL negation (NOT NULL = NULL).
type Not struct{ E Expr }

// NewNot returns a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

// Eval implements Expr.
func (n *Not) Eval(row []Value) Value {
	v := n.E.Eval(row)
	if v.Null {
		return NullValue()
	}
	return BoolValue(!v.B)
}

// Type implements Expr.
func (n *Not) Type() SQLType { return TBool }

// IsNull tests for SQL NULL (never returns NULL itself).
type IsNull struct {
	E      Expr
	Negate bool // IS NOT NULL
}

// NewIsNull returns an IS [NOT] NULL test.
func NewIsNull(e Expr, negate bool) *IsNull { return &IsNull{E: e, Negate: negate} }

// Eval implements Expr.
func (i *IsNull) Eval(row []Value) Value {
	v := i.E.Eval(row)
	return BoolValue(v.Null != i.Negate)
}

// Type implements Expr.
func (i *IsNull) Type() SQLType { return TBool }

// Like is a SQL LIKE with only leading/trailing '%' supported —
// enough for the evaluated workloads (prefix, suffix, containment,
// exact). Null propagates.
type Like struct {
	E       Expr
	Pattern string
}

// NewLike returns a LIKE match.
func NewLike(e Expr, pattern string) *Like { return &Like{E: e, Pattern: pattern} }

// Eval implements Expr.
func (l *Like) Eval(row []Value) Value {
	v := l.E.Eval(row)
	if v.Null {
		return NullValue()
	}
	if v.Typ != TText {
		return NullValue()
	}
	return BoolValue(MatchLike(v.S, l.Pattern))
}

// MatchLike evaluates the restricted LIKE dialect (leading/trailing
// '%' only) — shared with the vectorized kernels so both execution
// paths agree on pattern semantics.
func MatchLike(s, pattern string) bool {
	switch {
	case strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%") && len(pattern) >= 2:
		return strings.Contains(s, pattern[1:len(pattern)-1])
	case strings.HasPrefix(pattern, "%"):
		return strings.HasSuffix(s, pattern[1:])
	case strings.HasSuffix(pattern, "%") && len(pattern) >= 1:
		return strings.HasPrefix(s, pattern[:len(pattern)-1])
	default:
		return s == pattern
	}
}

// Type implements Expr.
func (l *Like) Type() SQLType { return TBool }

// In tests membership in a constant list.
type In struct {
	E    Expr
	List []Value
}

// NewIn returns an IN-list test.
func NewIn(e Expr, list ...Value) *In { return &In{E: e, List: list} }

// Eval implements Expr.
func (i *In) Eval(row []Value) Value {
	v := i.E.Eval(row)
	if v.Null {
		return NullValue()
	}
	for _, c := range i.List {
		if Equal(v, c) {
			return BoolValue(true)
		}
	}
	return BoolValue(false)
}

// Type implements Expr.
func (i *In) Type() SQLType { return TBool }

// Case is a searched CASE expression: the first WHEN whose condition
// is TRUE selects its result; otherwise Else (NULL when nil).
type Case struct {
	Whens   []When
	Else    Expr
	resultT SQLType
}

// When is one CASE arm.
type When struct {
	Cond   Expr
	Result Expr
}

// NewCase returns a searched CASE. Its type is its first non-NULL
// arm's type, and an arm of another type is cast to it, so every value
// the CASE yields is NULL or of its type.
func NewCase(whens []When, els Expr) *Case {
	whens = slices.Clone(whens)
	arms := make([]*Expr, 0, len(whens)+1)
	for i := range whens {
		arms = append(arms, &whens[i].Result)
	}
	if els != nil {
		arms = append(arms, &els)
	}
	t := TNull
	for _, a := range arms {
		if t = (*a).Type(); t != TNull {
			break
		}
	}
	for _, a := range arms {
		if at := (*a).Type(); at != t && at != TNull {
			*a = NewCast(*a, t)
		}
	}
	return &Case{Whens: whens, Else: els, resultT: t}
}

// Eval implements Expr.
func (c *Case) Eval(row []Value) Value {
	for _, w := range c.Whens {
		if w.Cond.Eval(row).IsTrue() {
			return w.Result.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return NullValue()
}

// Type implements Expr.
func (c *Case) Type() SQLType { return c.resultT }

// ExtractYear returns the year of a timestamp as BigInt.
type ExtractYear struct{ E Expr }

// NewExtractYear returns EXTRACT(YEAR FROM e).
func NewExtractYear(e Expr) *ExtractYear { return &ExtractYear{E: e} }

// Eval implements Expr.
func (x *ExtractYear) Eval(row []Value) Value {
	v := x.E.Eval(row)
	if v.Null || v.Typ != TTimestamp {
		return NullValue()
	}
	return IntValue(int64(dates.ToTime(v.I).Year()))
}

// Type implements Expr.
func (x *ExtractYear) Type() SQLType { return TBigInt }

// Substr returns a 1-based substring (SQL SUBSTRING semantics),
// clamped to the string bounds.
type Substr struct {
	E          Expr
	Start, Len int
}

// NewSubstr returns SUBSTRING(e FROM start FOR length).
func NewSubstr(e Expr, start, length int) *Substr { return &Substr{E: e, Start: start, Len: length} }

// Eval implements Expr.
func (s *Substr) Eval(row []Value) Value {
	v := s.E.Eval(row)
	if v.Null || v.Typ != TText {
		return NullValue()
	}
	start := s.Start - 1
	if start < 0 {
		start = 0
	}
	if start > len(v.S) {
		start = len(v.S)
	}
	end := start + s.Len
	if end > len(v.S) {
		end = len(v.S)
	}
	return TextValue(v.S[start:end])
}

// Type implements Expr.
func (s *Substr) Type() SQLType { return TText }

// Cast converts a value to a target SQL type following the paper's
// cast rules (§4.3): numeric↔numeric is cheap; Text sources parse;
// Timestamp→Text is the restricted direction (§4.9) — permitted here
// at the expression level with SQL formatting, while the *scan* never
// serves an extracted timestamp for a Text access.
type Cast struct {
	E  Expr
	To SQLType
}

// NewCast returns a cast.
func NewCast(e Expr, to SQLType) *Cast { return &Cast{E: e, To: to} }

// Eval implements Expr.
func (c *Cast) Eval(row []Value) Value {
	return CastValue(c.E.Eval(row), c.To)
}

// Type implements Expr.
func (c *Cast) Type() SQLType { return c.To }

// CastValue converts v to the target type, yielding NULL when the
// conversion is impossible (PostgreSQL would error; a total function
// keeps the engine simple and matches JSON-access semantics where
// malformed data yields NULL).
func CastValue(v Value, to SQLType) Value {
	if v.Null {
		return NullValue()
	}
	if v.Typ == to {
		return v
	}
	switch to {
	case TBigInt:
		switch v.Typ {
		case TFloat:
			return IntValue(int64(v.F))
		case TBool:
			if v.B {
				return IntValue(1)
			}
			return IntValue(0)
		case TText:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64); err == nil {
				return IntValue(i)
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
				return IntValue(int64(f))
			}
			return NullValue()
		case TTimestamp:
			return IntValue(v.I)
		}
	case TFloat:
		switch v.Typ {
		case TBigInt:
			return FloatValue(float64(v.I))
		case TBool:
			if v.B {
				return FloatValue(1)
			}
			return FloatValue(0)
		case TText:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
				return FloatValue(f)
			}
			return NullValue()
		}
	case TText:
		return TextValue(v.String())
	case TTimestamp:
		switch v.Typ {
		case TText:
			if m, ok := dates.Parse(v.S); ok {
				return TimestampValue(m)
			}
			return NullValue()
		case TBigInt:
			return TimestampValue(v.I)
		}
	case TBool:
		switch v.Typ {
		case TText:
			switch strings.ToLower(strings.TrimSpace(v.S)) {
			case "true", "t", "1":
				return BoolValue(true)
			case "false", "f", "0":
				return BoolValue(false)
			}
			return NullValue()
		case TBigInt:
			return BoolValue(v.I != 0)
		}
	}
	return NullValue()
}

// NullRejectedSlots computes, conservatively, the set of input slots
// whose NULL forces the predicate to evaluate to not-TRUE. It is the
// analysis behind tile skipping (§4.8): if a scan can prove an access
// is NULL for every tuple of a tile and that access feeds a
// null-rejected slot, the whole tile is skipped.
//
// The approximation is one-sided: a slot in the result is guaranteed
// null-rejecting; slots outside may or may not be. IS NULL, NOT and
// CASE report nothing (their null behaviour inverts or varies).
func NullRejectedSlots(pred Expr) map[int]bool {
	switch e := pred.(type) {
	case *Col:
		return map[int]bool{e.Idx: true} // NULL boolean is not TRUE
	case *Cmp:
		return unionSlots(referencedSlots(e.L), referencedSlots(e.R))
	case *Like:
		return referencedSlots(e.E)
	case *In:
		return referencedSlots(e.E)
	case *And:
		return unionSlots(NullRejectedSlots(e.L), NullRejectedSlots(e.R))
	case *Or:
		return intersectSlots(NullRejectedSlots(e.L), NullRejectedSlots(e.R))
	case *IsNull:
		if e.Negate {
			// x IS NOT NULL: a NULL input makes the predicate FALSE.
			return referencedSlots(e.E)
		}
		return nil
	default:
		return nil
	}
}

// referencedSlots returns every slot an expression reads, valid as a
// null-rejection set only for null-propagating expressions (all value
// expressions here propagate NULL except Case and IsNull).
func referencedSlots(e Expr) map[int]bool {
	switch x := e.(type) {
	case *Col:
		return map[int]bool{x.Idx: true}
	case *Const:
		return nil
	case *Cmp:
		return unionSlots(referencedSlots(x.L), referencedSlots(x.R))
	case *Arith:
		return unionSlots(referencedSlots(x.L), referencedSlots(x.R))
	case *Cast:
		return referencedSlots(x.E)
	case *ExtractYear:
		return referencedSlots(x.E)
	case *Substr:
		return referencedSlots(x.E)
	case *Like:
		return referencedSlots(x.E)
	default:
		return nil // IsNull, Case, Not, ...: no guarantee
	}
}

func unionSlots(a, b map[int]bool) map[int]bool {
	if len(a) == 0 {
		return b
	}
	for k := range b {
		a[k] = true
	}
	return a
}

func intersectSlots(a, b map[int]bool) map[int]bool {
	out := map[int]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// AllSlots returns every slot referenced anywhere in the expression
// tree (planning: which accesses a predicate needs).
func AllSlots(e Expr) map[int]bool {
	out := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Col:
			out[x.Idx] = true
		case *Cmp:
			walk(x.L)
			walk(x.R)
		case *Arith:
			walk(x.L)
			walk(x.R)
		case *And:
			walk(x.L)
			walk(x.R)
		case *Or:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.E)
		case *IsNull:
			walk(x.E)
		case *Like:
			walk(x.E)
		case *In:
			walk(x.E)
		case *Cast:
			walk(x.E)
		case *ExtractYear:
			walk(x.E)
		case *Substr:
			walk(x.E)
		case *Case:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			if x.Else != nil {
				walk(x.Else)
			}
		}
	}
	walk(e)
	return out
}
