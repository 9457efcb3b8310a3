// Value expressions over batches: a compiled expression evaluates to
// one vector per batch, positionally aligned with the batch's rows and
// defined on the selected ones. Column references alias the input
// vector; + - * / over int and float vectors and constants run as
// typed loops that propagate NULL through the null bitmaps; every
// other expression shape is evaluated cell by cell with expr.Eval over
// just the slots it reads, into a typed vector of the expression's
// type — so every expression compiles, and the typed kernels decide
// per batch from the vectors they actually get.
package vec

import (
	"sort"

	"repro/internal/expr"
)

// CompiledExpr is a value expression over batch column slots.
type CompiledExpr struct {
	root  valNode
	bufs  int
	width int // 1 + the highest slot read
}

// compiler numbers the buffers and tracks the slots a predicate or
// expression tree reads.
type compiler struct{ bufs, orPairs, width int }

func (c *compiler) buf() int { c.bufs++; return c.bufs - 1 }

func (c *compiler) slot(i int) int {
	if i < 0 {
		c.width = int(^uint(0) >> 1) // never valid
	} else if i >= c.width {
		c.width = i + 1
	}
	return i
}

// CompileExpr compiles a value expression.
func CompileExpr(e expr.Expr) *CompiledExpr {
	c := &compiler{}
	root := c.val(e)
	return &CompiledExpr{root: root, bufs: c.bufs, width: c.width}
}

// NewScratch returns the per-worker state the expression needs.
func (c *CompiledExpr) NewScratch() *Scratch { return newScratch(0, c.bufs, c.width) }

// Eval evaluates the expression for the batch's selected rows. The
// result is valid until the next Eval with the same scratch (or, for a
// bare column, as long as the batch).
func (c *CompiledExpr) Eval(b *Batch, sc *Scratch) *Vector {
	return c.root.eval(b, b.Selected(), sc)
}

type valNode interface {
	eval(b *Batch, sel []int32, sc *Scratch) *Vector
}

func (c *compiler) val(e expr.Expr) valNode {
	switch x := e.(type) {
	case *expr.Col:
		return colVal(c.slot(x.Idx))
	case *expr.Arith:
		n := &arithVal{op: x.Op, out: c.buf()}
		n.l, n.lc = c.operand(x.L)
		n.r, n.rc = c.operand(x.R)
		if n.l != nil || n.r != nil {
			return n
		}
	}
	slots := make([]int, 0, 4)
	for s := range expr.AllSlots(e) {
		slots = append(slots, c.slot(s))
	}
	sort.Ints(slots)
	return &rowVal{e: e, slots: slots, out: c.buf()}
}

// operand compiles one side of an arithmetic node: a constant stays a
// scalar, anything else becomes a node.
func (c *compiler) operand(e expr.Expr) (valNode, *expr.Value) {
	if k, ok := e.(*expr.Const); ok {
		return nil, &k.V
	}
	return c.val(e), nil
}

type colVal int

func (s colVal) eval(b *Batch, _ []int32, _ *Scratch) *Vector { return &b.Cols[s] }

// rowVal is the cell-by-cell fallback: box the slots the expression
// reads, evaluate, and write the value into a vector of the
// expression's type.
type rowVal struct {
	e     expr.Expr
	slots []int
	out   int
}

func (n *rowVal) eval(b *Batch, sel []int32, sc *Scratch) *Vector {
	buf := &sc.bufs[n.out]
	buf.Reset(n.e.Type(), b.Len)
	for _, i := range sel {
		for _, s := range n.slots {
			sc.row[s] = b.Cols[s].Value(int(i))
		}
		buf.Value(int(i), n.e.Eval(sc.row))
	}
	return buf.Vector()
}

type arithVal struct {
	op     expr.ArithOp
	l, r   valNode
	lc, rc *expr.Value
	out    int
}

// operand is one side of an arithmetic loop: a typed slice indexed
// through a mask that is all ones for a vector and zero for a
// broadcast constant.
type operand struct {
	ints   []int64
	floats []float64
	mask   int
	bigint bool // int arithmetic applies (BigInt, not Timestamp)
	null   bool // NULL constant, all-NULL vector or a non-numeric type
	vec    *Vector
}

func vecOperand(v *Vector) operand {
	switch {
	case v.AllNull:
		return operand{null: true, bigint: v.Type == expr.TBigInt}
	case v.Type == expr.TBigInt, v.Type == expr.TTimestamp:
		return operand{ints: v.Ints, mask: -1, bigint: v.Type == expr.TBigInt, vec: v}
	case v.Type == expr.TFloat:
		return operand{floats: v.Floats, mask: -1, vec: v}
	}
	return operand{null: true}
}

func constOperand(c expr.Value) operand {
	switch {
	case c.Null:
	case c.Typ == expr.TBigInt, c.Typ == expr.TTimestamp:
		return operand{ints: []int64{c.I}, bigint: c.Typ == expr.TBigInt}
	case c.Typ == expr.TFloat:
		return operand{floats: []float64{c.F}}
	}
	return operand{null: true}
}

func (n *arithVal) eval(b *Batch, sel []int32, sc *Scratch) *Vector {
	var l, r operand
	if n.l != nil {
		l = vecOperand(n.l.eval(b, sel, sc))
	} else {
		l = constOperand(*n.lc)
	}
	if n.r != nil {
		r = vecOperand(n.r.eval(b, sel, sc))
	} else {
		r = constOperand(*n.rc)
	}
	buf := &sc.bufs[n.out]
	intOp := l.bigint && r.bigint && n.op != expr.Div
	out := Vector{Type: expr.TFloat}
	if intOp {
		out.Type = expr.TBigInt
	}
	switch {
	case l.null || r.null:
		out.AllNull = true
	default:
		buf.nulls = nullBits(buf.nulls, b.Len)
		nulls := buf.nulls
		for _, v := range [2]*Vector{l.vec, r.vec} {
			for w := 0; v != nil && w < len(v.Nulls) && w < len(nulls); w++ {
				nulls[w] |= v.Nulls[w]
			}
		}
		switch {
		case intOp:
			buf.ints = Resize(buf.ints, b.Len)
			out.Ints = buf.ints
			for _, i := range sel {
				x, y := l.ints[int(i)&l.mask], r.ints[int(i)&r.mask]
				switch n.op {
				case expr.Add:
					out.Ints[i] = x + y
				case expr.Sub:
					out.Ints[i] = x - y
				default:
					out.Ints[i] = x * y
				}
			}
		case l.ints != nil && r.ints != nil:
			out.Floats = arithFloats(buf, n.op, l.ints, l.mask, r.ints, r.mask, sel, b.Len, nulls)
		case l.ints != nil:
			out.Floats = arithFloats(buf, n.op, l.ints, l.mask, r.floats, r.mask, sel, b.Len, nulls)
		case r.ints != nil:
			out.Floats = arithFloats(buf, n.op, l.floats, l.mask, r.ints, r.mask, sel, b.Len, nulls)
		default:
			out.Floats = arithFloats(buf, n.op, l.floats, l.mask, r.floats, r.mask, sel, b.Len, nulls)
		}
		out.Nulls = anyNull(nulls)
	}
	return buf.hold(out)
}

// arithFloats is the float arithmetic loop; integer sides widen per
// element, and division by zero yields NULL, as expr.Arith does.
func arithFloats[L, R int64 | float64](buf *Buf, op expr.ArithOp, l []L, lm int, r []R, rm int, sel []int32, n int, nulls []uint64) []float64 {
	buf.floats = Resize(buf.floats, n)
	dst := buf.floats
	for _, i := range sel {
		x, y := float64(l[int(i)&lm]), float64(r[int(i)&rm])
		switch op {
		case expr.Add:
			dst[i] = x + y
		case expr.Sub:
			dst[i] = x - y
		case expr.Mul:
			dst[i] = x * y
		default:
			if y == 0 {
				setNull(nulls, i)
			} else {
				dst[i] = x / y
			}
		}
	}
	return dst
}
