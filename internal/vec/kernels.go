// Predicate kernels: compiled filter trees that narrow a batch's
// selection vector with typed loops instead of per-row expression
// evaluation. Selection semantics follow SQL WHERE: a row survives
// only when the predicate is TRUE — NULL and FALSE both drop it —
// which is what lets conjunction chain kernels and disjunction merge
// two selections without tracking three-valued results per row.
package vec

import (
	"bytes"
	"math/bits"
	"strings"

	"repro/internal/expr"
)

// pred is a compiled, immutable predicate. apply narrows sel (nil =
// all n rows) writing into out[:0]; out may alias sel because kernels
// write behind their read position.
type pred interface {
	apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32
}

// CompiledPred is a vectorized predicate over batch column slots.
type CompiledPred struct {
	root                 pred
	orPairs, bufs, width int
}

// Scratch holds the per-worker buffers a compiled predicate or
// expression needs: one result selection plus two per OR node, one
// vector buffer per value node, and the row the cell-by-cell fallbacks
// box into. It also counts the predicate kernels that ran in
// dictionary code space (TakeDictShortcuts). A Scratch must not be
// shared between concurrent workers.
type Scratch struct {
	main []int32
	or   [][]int32
	mask []bool // per-dictionary-code match table (LIKE/IN dict paths)
	bufs []Buf
	row  []expr.Value

	dictShortcuts int64
}

func newScratch(orPairs, bufs, width int) *Scratch {
	return &Scratch{or: make([][]int32, 2*orPairs), bufs: make([]Buf, bufs), row: make([]expr.Value, width)}
}

// NewScratch returns a scratch sized for the predicate.
func (p *CompiledPred) NewScratch() *Scratch { return newScratch(p.orPairs, p.bufs, p.width) }

// Fit returns sc grown where the predicate needs more than it holds (a
// new scratch when sc is nil), so that one worker's scratch serves
// several predicates in turn.
func (p *CompiledPred) Fit(sc *Scratch) *Scratch {
	if sc == nil {
		return p.NewScratch()
	}
	if n := 2 * p.orPairs; len(sc.or) < n {
		sc.or = append(sc.or, make([][]int32, n-len(sc.or))...)
	}
	if len(sc.bufs) < p.bufs {
		sc.bufs = append(sc.bufs, make([]Buf, p.bufs-len(sc.bufs))...)
	}
	if len(sc.row) < p.width {
		sc.row = append(sc.row, make([]expr.Value, p.width-len(sc.row))...)
	}
	return sc
}

// Release drops every cell and vector the scratch still references, as
// they may alias storage the caller is about to free, and keeps its
// buffers for reuse.
func (sc *Scratch) Release() {
	clear(sc.row)
	for i := range sc.bufs {
		sc.bufs[i].Drop()
	}
}

// Recycle hands every buffer's arrays to the recycler, for a scratch
// whose predicate or expression has run its last batch.
func (sc *Scratch) Recycle() {
	Recycle(sc.main)
	sc.main = nil
	for i := range sc.or {
		Recycle(sc.or[i])
		sc.or[i] = nil
	}
	for i := range sc.bufs {
		sc.bufs[i].Release()
	}
}

// TakeDictShortcuts returns how many predicate kernels evaluated in
// dictionary code space since the last call, and resets the count. A
// nil scratch ran none.
func (sc *Scratch) TakeDictShortcuts() int64 {
	if sc == nil {
		return 0
	}
	n := sc.dictShortcuts
	sc.dictShortcuts = 0
	return n
}

// grow returns an empty selection buffer with room for n rows. It
// leaves an outgrown buf to the garbage collector, not the recycler:
// buf may still hold the selection being narrowed.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return alloc[int32](n)
	}
	return buf[:0]
}

// Sel applies the predicate to the batch's current selection and
// returns the surviving selection (backed by the scratch; valid until
// the next Sel call with the same scratch).
func (p *CompiledPred) Sel(b *Batch, sc *Scratch) []int32 {
	sc.main = grow(sc.main, b.Len)
	for i := range sc.or {
		sc.or[i] = grow(sc.or[i], b.Len)
	}
	out := p.root.apply(b, b.Sel, b.Len, sc.main, sc)
	sc.main = out[:0]
	return out
}

// Compile translates an expression into a vectorized predicate. Typed
// kernels cover comparisons (column or arithmetic against a constant,
// a column or arithmetic), IS [NOT] NULL, IN over constants, LIKE,
// bare boolean columns, AND, OR and NOT (pushed down to the leaves by
// De Morgan, which is exact in three-valued logic); any other shape is
// evaluated cell by cell with expr.Eval over the slots it reads. ok is
// false only when the expression reads a slot outside [0, width).
func Compile(e expr.Expr, width int) (*CompiledPred, bool) {
	c := &compiler{}
	root := c.pred(e, false)
	if c.width > width {
		return nil, false
	}
	return &CompiledPred{root: root, orPairs: c.orPairs, bufs: c.bufs, width: c.width}, true
}

// pred compiles e, negated when neg is set.
func (c *compiler) pred(e expr.Expr, neg bool) pred {
	switch x := e.(type) {
	case *expr.Not:
		return c.pred(x.E, !neg)
	case *expr.And:
		return c.junction(x.L, x.R, !neg, neg)
	case *expr.Or:
		return c.junction(x.L, x.R, neg, neg)
	case *expr.Cmp:
		op := x.Op
		if neg {
			op = negateCmp(op)
		}
		l, r := x.L, x.R
		if _, ok := l.(*expr.Const); ok {
			l, r, op = r, l, flipCmp(op)
		}
		p := &cmpPred{op: op, l: c.val(l)}
		if k, ok := r.(*expr.Const); ok {
			p.c = &k.V
		} else {
			p.r = c.val(r)
		}
		return p
	case *expr.IsNull:
		if col, ok := x.E.(*expr.Col); ok {
			return &isNullPred{slot: c.slot(col.Idx), negate: x.Negate != neg}
		}
	case *expr.In:
		if col, ok := x.E.(*expr.Col); ok {
			return newInPred(c.slot(col.Idx), x.List, neg)
		}
	case *expr.Like:
		if col, ok := x.E.(*expr.Col); ok {
			return newLikePred(c.slot(col.Idx), x.Pattern, neg)
		}
	case *expr.Col:
		return &boolColPred{slot: c.slot(x.Idx), negate: neg}
	}
	if neg {
		e = expr.NewNot(e)
	}
	return &rowPred{val: c.val(e)}
}

// junction compiles l AND r (and set) or l OR r over the possibly
// negated sides.
func (c *compiler) junction(l, r expr.Expr, and, neg bool) pred {
	if and {
		return &andPred{l: c.pred(l, neg), r: c.pred(r, neg)}
	}
	id := c.orPairs
	c.orPairs++
	return &orPred{l: c.pred(l, neg), r: c.pred(r, neg), id: id}
}

// negateCmp is the operator of NOT (a op b).
func negateCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.EQ:
		return expr.NE
	case expr.NE:
		return expr.EQ
	case expr.LT:
		return expr.GE
	case expr.LE:
		return expr.GT
	case expr.GT:
		return expr.LE
	default:
		return expr.LT
	}
}

// rowPred is the cell-by-cell fallback: TRUE cells of the boxed value.
type rowPred struct{ val valNode }

func (p *rowPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	if sel == nil {
		sel = Iota(n)
	}
	v := p.val.eval(b, sel, sc)
	for _, i := range sel {
		if v.Value(int(i)).IsTrue() {
			out = append(out, i)
		}
	}
	return out
}

// flipCmp mirrors an operator across swapped operands (c op col →
// col flip(op) c).
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default:
		return op // EQ, NE are symmetric
	}
}

type andPred struct{ l, r pred }

func (p *andPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	o := p.l.apply(b, sel, n, out, sc)
	// The right side filters the left's output in place: its writes
	// trail its reads.
	return p.r.apply(b, o, n, o[:0], sc)
}

type orPred struct {
	l, r pred
	id   int
}

func (p *orPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	a := p.l.apply(b, sel, n, sc.or[2*p.id], sc)
	bb := p.r.apply(b, sel, n, sc.or[2*p.id+1], sc)
	sc.or[2*p.id] = a[:0]
	sc.or[2*p.id+1] = bb[:0]
	return mergeUnion(a, bb, out)
}

// mergeUnion merges two ascending selections (subsequences of the
// same parent selection) into out, dropping duplicates.
func mergeUnion(a, b, out []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// matchCmp converts a three-way comparison into the operator's truth
// value.
func matchCmp(op expr.CmpOp, c int) bool {
	switch op {
	case expr.EQ:
		return c == 0
	case expr.NE:
		return c != 0
	case expr.LT:
		return c < 0
	case expr.LE:
		return c <= 0
	case expr.GT:
		return c > 0
	default:
		return c >= 0
	}
}

// cmpPred compares a value expression with a constant (c set) or with
// another value expression.
type cmpPred struct {
	op   expr.CmpOp
	l, r valNode
	c    *expr.Value
}

func (p *cmpPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	es := sel
	if es == nil {
		es = Iota(n)
	}
	lv := p.l.eval(b, es, sc)
	if p.c != nil {
		return cmpVecConst(lv, p.op, *p.c, sel, n, out, sc)
	}
	return cmpVecs(lv, p.r.eval(b, es, sc), p.op, es, out)
}

func cmpVecConst(v *Vector, op expr.CmpOp, c expr.Value, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	if c.Null || v.AllNull {
		return out // NULL comparison is never TRUE
	}
	if v.Boxed != nil {
		return cmpBoxed(v, op, c, sel, n, out)
	}
	switch v.Type {
	case expr.TBigInt, expr.TTimestamp:
		switch c.Typ {
		case expr.TBigInt, expr.TTimestamp:
			if c.Typ == v.Type {
				return cmpNums(v, v.Ints, op, c.I, sel, n, out)
			}
			// Cross numeric types compare as float (expr.Compare).
			return cmpIntsAsFloat(v, op, float64(c.I), sel, n, out)
		case expr.TFloat:
			return cmpIntsAsFloat(v, op, c.F, sel, n, out)
		}
		return out
	case expr.TFloat:
		cf, ok := c.AsFloat()
		if !ok {
			return out
		}
		return cmpNums(v, v.Floats, op, cf, sel, n, out)
	case expr.TText:
		if c.Typ != expr.TText {
			return out
		}
		return cmpStrs(v, op, c.S, sel, n, out, sc)
	case expr.TBool:
		if c.Typ != expr.TBool {
			return out
		}
		return cmpBools(v, op, c.B, sel, n, out)
	}
	return out
}

func isIntVec(v *Vector) bool { return v.Type == expr.TBigInt || v.Type == expr.TTimestamp }

func isFloatVec(v *Vector) bool { return v.Type == expr.TFloat }

// cmpVecs keeps the selected rows where l op r is TRUE, with
// expr.Compare's semantics: same-type integers compare exactly, mixed
// numerics as floats, text bytewise, anything else cell by cell.
func cmpVecs(l, r *Vector, op expr.CmpOp, sel, out []int32) []int32 {
	if l.AllNull || r.AllNull {
		return out
	}
	keep := func(cmp func(i int) (int, bool)) []int32 {
		for _, i := range sel {
			if l.IsNull(int(i)) || r.IsNull(int(i)) {
				continue
			}
			if c, ok := cmp(int(i)); ok && matchCmp(op, c) {
				out = append(out, i)
			}
		}
		return out
	}
	switch {
	case isIntVec(l) && isIntVec(r) && l.Type == r.Type:
		return keep(func(i int) (int, bool) { return cmp3Int(l.Ints[i], r.Ints[i]), true })
	case isIntVec(l) && isIntVec(r):
		return keep(func(i int) (int, bool) { return cmp3Float(float64(l.Ints[i]), float64(r.Ints[i])), true })
	case isIntVec(l) && isFloatVec(r):
		return keep(func(i int) (int, bool) { return cmp3Float(float64(l.Ints[i]), r.Floats[i]), true })
	case isFloatVec(l) && isIntVec(r):
		return keep(func(i int) (int, bool) { return cmp3Float(l.Floats[i], float64(r.Ints[i])), true })
	case isFloatVec(l) && isFloatVec(r):
		return keep(func(i int) (int, bool) { return cmp3Float(l.Floats[i], r.Floats[i]), true })
	case l.Type == expr.TText && r.Type == expr.TText:
		return keep(func(i int) (int, bool) { return bytes.Compare(l.StrAt(i), r.StrAt(i)), true })
	}
	return keep(func(i int) (int, bool) { return expr.Compare(l.Value(i), r.Value(i)) })
}

// cmpNums keeps the selected rows whose cell op c is TRUE. NULL rows go
// first; each operator then has a loop of its own that spells out
// matchCmp over cmp3Int / cmp3Float (NaN compares equal to anything),
// so a cell costs one or two comparisons and no dispatch.
func cmpNums[T int64 | float64](v *Vector, vals []T, op expr.CmpOp, c T, sel []int32, n int, out []int32) []int32 {
	if sel == nil {
		sel = Iota(n)
	}
	if v.Nulls != nil {
		// Writes trail reads, so out may be sel.
		live := out[:0]
		for _, i := range sel {
			if !v.IsNull(int(i)) {
				live = append(live, i)
			}
		}
		sel, out = live, live[:0]
	}
	switch op {
	case expr.EQ:
		for _, i := range sel {
			if x := vals[i]; !(x < c) && !(x > c) {
				out = append(out, i)
			}
		}
	case expr.NE:
		for _, i := range sel {
			if x := vals[i]; x < c || x > c {
				out = append(out, i)
			}
		}
	case expr.LT:
		for _, i := range sel {
			if vals[i] < c {
				out = append(out, i)
			}
		}
	case expr.LE:
		for _, i := range sel {
			if !(vals[i] > c) {
				out = append(out, i)
			}
		}
	case expr.GT:
		for _, i := range sel {
			if vals[i] > c {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if !(vals[i] < c) {
				out = append(out, i)
			}
		}
	}
	return out
}

func cmpIntsAsFloat(v *Vector, op expr.CmpOp, c float64, sel []int32, n int, out []int32) []int32 {
	return selectIf(sel, n, out, func(i int) bool {
		return !v.IsNull(i) && matchCmp(op, cmp3Float(float64(v.Ints[i]), c))
	})
}

func cmpStrs(v *Vector, op expr.CmpOp, c string, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	cb := []byte(c)
	if v.Dict {
		return cmpStrsDict(v, op, cb, sel, n, out, sc)
	}
	return selectIf(sel, n, out, func(i int) bool {
		return !v.IsNull(i) && matchCmp(op, bytes.Compare(v.StrAt(i), cb))
	})
}

func cmpBools(v *Vector, op expr.CmpOp, c bool, sel []int32, n int, out []int32) []int32 {
	return selectIf(sel, n, out, func(i int) bool {
		cv, _ := expr.Compare(expr.BoolValue(v.Bool(i)), expr.BoolValue(c))
		return !v.IsNull(i) && matchCmp(op, cv)
	})
}

func cmpBoxed(v *Vector, op expr.CmpOp, c expr.Value, sel []int32, n int, out []int32) []int32 {
	return selectIf(sel, n, out, func(i int) bool {
		cv, ok := expr.Compare(v.Boxed[i], c) // not ok for NULL and incomparable types
		return ok && matchCmp(op, cv)
	})
}

func cmp3Int(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmp3Float(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

type isNullPred struct {
	slot   int
	negate bool
}

func (p *isNullPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	v := &b.Cols[p.slot]
	if sel != nil || v.Boxed != nil || v.AllNull {
		return selectIf(sel, n, out, func(i int) bool { return v.IsNull(i) != p.negate })
	}
	// A typed vector over every row: read the null bitmap a word at a
	// time.
	all := Iota(n)
	for w := 0; w<<6 < n; w++ {
		var keep uint64
		if w < len(v.Nulls) {
			keep = v.Nulls[w]
		}
		if p.negate {
			keep = ^keep
		}
		if rem := n - w<<6; rem < 64 {
			keep &= 1<<uint(rem) - 1
		}
		if keep == ^uint64(0) {
			out = append(out, all[w<<6:w<<6+64]...)
			continue
		}
		for ; keep != 0; keep &= keep - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(keep)))
		}
	}
	return out
}

// inPred is col [NOT] IN (constants): a NULL cell is never selected,
// any other cell when its membership differs from negate.
type inPred struct {
	slot   int
	list   []expr.Value
	strs   [][]byte // TText constants pre-converted for byte comparison
	negate bool
}

func newInPred(slot int, list []expr.Value, negate bool) *inPred {
	p := &inPred{slot: slot, list: list, negate: negate}
	for _, c := range list {
		if !c.Null && c.Typ == expr.TText {
			p.strs = append(p.strs, []byte(c.S))
		}
	}
	return p
}

func (p *inPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	v := &b.Cols[p.slot]
	if v.AllNull {
		return out
	}
	var member func(i int) bool // of a non-null cell
	switch {
	case v.Type == expr.TText && v.Dict:
		return p.inDict(v, sel, n, out, sc)
	case v.Type == expr.TText:
		member = func(i int) bool {
			s := v.StrAt(i)
			for _, c := range p.strs {
				if bytes.Equal(s, c) {
					return true
				}
			}
			return false
		}
	default:
		// ::JSON documents, and numeric / bool / timestamp vectors whose
		// cells box without allocating: reuse SQL equality.
		member = func(i int) bool {
			x := v.Value(i)
			for _, c := range p.list {
				if expr.Equal(x, c) {
					return true
				}
			}
			return false
		}
	}
	return selectIf(sel, n, out, func(i int) bool { return !v.IsNull(i) && member(i) != p.negate })
}

// selectIf appends the selected rows that pass test.
func selectIf(sel []int32, n int, out []int32, test func(i int) bool) []int32 {
	if sel == nil {
		sel = Iota(n)
	}
	for _, i := range sel {
		if test(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

type likeKind uint8

const (
	likeExact likeKind = iota
	likePrefix
	likeSuffix
	likeContains
)

// likePred is col [NOT] LIKE pattern over text cells; NULL and
// non-text cells are never selected.
type likePred struct {
	slot   int
	kind   likeKind
	needle []byte // pattern with the % stripped, pre-converted
	negate bool
}

func newLikePred(slot int, pattern string, negate bool) *likePred {
	p := &likePred{slot: slot, negate: negate}
	switch {
	case strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%") && len(pattern) >= 2:
		p.kind, p.needle = likeContains, []byte(pattern[1:len(pattern)-1])
	case strings.HasPrefix(pattern, "%"):
		p.kind, p.needle = likeSuffix, []byte(pattern[1:])
	case strings.HasSuffix(pattern, "%") && len(pattern) >= 1:
		p.kind, p.needle = likePrefix, []byte(pattern[:len(pattern)-1])
	default:
		p.kind, p.needle = likeExact, []byte(pattern)
	}
	return p
}

func (p *likePred) match(s []byte) bool {
	switch p.kind {
	case likeContains:
		return bytes.Contains(s, p.needle)
	case likeSuffix:
		return bytes.HasSuffix(s, p.needle)
	case likePrefix:
		return bytes.HasPrefix(s, p.needle)
	default:
		return bytes.Equal(s, p.needle)
	}
}

func (p *likePred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	v := &b.Cols[p.slot]
	switch {
	case v.AllNull, v.Type != expr.TText:
		return out // non-text LIKE is NULL row-wise, never TRUE
	case v.Dict:
		return p.likeDict(v, sel, n, out, sc)
	}
	return selectIf(sel, n, out, func(i int) bool { return !v.IsNull(i) && p.match(v.StrAt(i)) != p.negate })
}

// boolColPred is a bare column as predicate, or NOT of it: expr.Not
// reads any non-null cell's boolean payload, so NOT selects every
// non-null cell that is not TRUE, a ::JSON document included.
type boolColPred struct {
	slot   int
	negate bool
}

func (p *boolColPred) apply(b *Batch, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	v := &b.Cols[p.slot]
	if v.AllNull {
		return out
	}
	return selectIf(sel, n, out, func(i int) bool {
		if v.IsNull(i) {
			return false
		}
		return (v.Type == expr.TBool && v.Bool(i)) != p.negate
	})
}
