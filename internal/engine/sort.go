package engine

import (
	"slices"
	"sync"

	"repro/internal/expr"
	"repro/internal/vec"
)

// OrderKey is one ORDER BY key.
type OrderKey struct {
	E    expr.Expr
	Desc bool
}

// OrderBy sorts its input by the keys in the engine's cell order
// (valueOrder: NULL first, NaN after every number), each key flipped by
// Desc; rows that tie keep their input order, worker-ascending. When
// Limit is positive it keeps only the first Limit rows of that order,
// and each worker's buffer stays O(Limit) while the input streams.
type OrderBy struct {
	In    Operator
	Keys  []OrderKey
	Limit int // > 0: keep only the first Limit rows of the sorted order
}

// NewOrderBy builds a sort.
func NewOrderBy(in Operator, keys ...OrderKey) *OrderBy { return &OrderBy{In: in, Keys: keys} }

// Columns implements Operator.
func (o *OrderBy) Columns() []ColumnDesc { return o.In.Columns() }

// Inputs implements the plan-walking interface.
func (o *OrderBy) Inputs() []Operator { return []Operator{o.In} }

// sortBuf is one worker's share of the rows being sorted, copied into
// column buffers: the input columns, then any computed keys.
type sortBuf struct {
	cols  []vec.Buf
	keys  []int // the column of each key
	desc  []bool
	n     int
	limit int     // > 0: cut back to limit rows whenever 2*limit are held
	last  int     // after a cut, the row of the limit-th kept row; -1 before
	sel   []int32 // rows of the current batch still to append
}

func newSortBuf(cols []ColumnDesc, keys []int, desc []bool, limit int) *sortBuf {
	return &sortBuf{cols: newBufs(cols), keys: keys, desc: desc, limit: limit, last: -1}
}

// add appends a batch's rows, cutting as soon as 2*limit rows are held.
// Once the buffer has been cut, a row is kept only if it sorts strictly
// before the last kept row: one typed comparison per losing row.
func (s *sortBuf) add(b *vec.Batch) {
	for _, i := range b.Selected() {
		if s.last >= 0 && !s.before(b, int(i)) {
			continue
		}
		s.sel = append(s.sel, i)
		if s.limit > 0 && s.n+len(s.sel) == 2*s.limit {
			s.flush(b)
			s.cut()
		}
	}
	s.flush(b)
}

// flush appends the rows of b listed in sel.
func (s *sortBuf) flush(b *vec.Batch) {
	if len(s.sel) == 0 {
		return
	}
	for c := range s.cols {
		s.cols[c].AppendVector(&b.Cols[c], s.sel, b.Len)
	}
	s.n += len(s.sel)
	s.sel = s.sel[:0]
}

// before reports whether row i of b sorts strictly before the last
// kept row.
func (s *sortBuf) before(b *vec.Batch, i int) bool {
	for k, col := range s.keys {
		if c := cellsOrder(&b.Cols[col], i, s.cols[col].Vector(), s.last); c != 0 {
			return (c < 0) != s.desc[k]
		}
	}
	return false
}

// order returns the buffer's rows in sorted order; ties keep row order.
func (s *sortBuf) order() []int32 {
	keys := make([]vec.Vector, len(s.keys))
	for k, col := range s.keys {
		keys[k] = *s.cols[col].Vector()
	}
	perm := slices.Clone(vec.Iota(s.n))
	slices.SortStableFunc(perm, rowOrder(keys, s.desc, s.n))
	return perm
}

// cut keeps the first limit rows of the sorted order, in that order.
func (s *sortBuf) cut() {
	perm := s.order()[:s.limit]
	for c := range s.cols {
		var kept vec.Buf
		kept.Reset(s.cols[c].Vector().Type, 0)
		kept.AppendVector(s.cols[c].Vector(), perm, 0)
		s.cols[c].Release()
		s.cols[c] = kept
	}
	s.n, s.last = s.limit, s.limit-1
}

// RunBatches implements Operator. Computed keys are projected after
// the input columns, each worker buffers its rows (with a Limit, a
// superset of its share of the global top K), and the buffers are
// concatenated worker-ascending, sorted, cut, and gathered into one
// batch.
func (o *OrderBy) RunBatches(workers int, emit BatchEmitFunc) {
	cols := o.In.Columns()
	exprs := make([]expr.Expr, len(cols))
	for i, c := range cols {
		exprs[i] = expr.NewCol(i, c.Type)
	}
	keys, desc := make([]int, len(o.Keys)), make([]bool, len(o.Keys))
	for k, key := range o.Keys {
		if c, ok := key.E.(*expr.Col); ok && c.Idx < len(cols) {
			keys[k] = c.Idx
		} else {
			keys[k], exprs = len(exprs), append(exprs, key.E)
		}
		desc[k] = key.Desc
	}
	in := o.In
	if len(exprs) > len(cols) {
		in = NewProject(o.In, exprs, nil)
	}
	inCols := in.Columns()
	bufs := perWorker(workers, func() *sortBuf { return newSortBuf(inCols, keys, desc, o.Limit) })
	run(in, workers, func(w int, b *vec.Batch) { bufs[w].add(b) })
	all := bufs[0]
	for _, s := range bufs[1:] {
		for c := range s.cols {
			all.cols[c].AppendVector(s.cols[c].Vector(), nil, s.n)
		}
		releaseBufs(s.cols)
		all.n += s.n
	}
	perm := all.order()
	if o.Limit > 0 && len(perm) > o.Limit {
		perm = perm[:o.Limit]
	}
	if len(perm) > 0 {
		out := vec.Batch{Len: len(perm), Cols: make([]vec.Vector, len(cols))}
		gather := make([]vec.Buf, len(cols))
		for c := range out.Cols {
			out.Cols[c] = *gather[c].Gather(all.cols[c].Vector(), perm, nil)
		}
		emit(0, &out)
		releaseBufs(gather)
	}
	// The sorted batch is dead once emitted (BatchEmitFunc), and with
	// it every buffer.
	for _, s := range bufs {
		vec.Recycle(s.sel)
	}
	releaseBufs(all.cols)
}

// Limit passes through the first N rows it is handed. A batch that
// crosses the bound has its selection vector cut; batches are counted
// under a lock, so a parallel input yields some N of its rows.
type Limit struct {
	In Operator
	N  int
}

// NewLimit builds a limit.
func NewLimit(in Operator, n int) *Limit { return &Limit{In: in, N: n} }

// Columns implements Operator.
func (l *Limit) Columns() []ColumnDesc { return l.In.Columns() }

// Inputs implements the plan-walking interface.
func (l *Limit) Inputs() []Operator { return []Operator{l.In} }

// RunBatches implements Operator.
func (l *Limit) RunBatches(workers int, emit BatchEmitFunc) {
	var mu sync.Mutex
	seen := 0
	cut := perWorker(workers, func() vec.Batch { return vec.Batch{} })
	run(l.In, workers, func(w int, b *vec.Batch) {
		mu.Lock()
		take := min(l.N-seen, b.Rows())
		seen += take
		mu.Unlock()
		switch {
		case take <= 0:
		case take == b.Rows():
			emit(w, b)
		default:
			cut[w] = *b
			cut[w].Sel = b.Selected()[:take]
			emit(w, &cut[w])
		}
	})
}
