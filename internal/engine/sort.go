package engine

import (
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/vec"
)

// OrderKey is one ORDER BY key.
type OrderKey struct {
	E    expr.Expr
	Desc bool
}

// OrderBy sorts the whole input (then usually feeds a Limit). When
// Limit is positive the sort runs as a bounded top-K heap: only the K
// best rows are retained while the input streams, so ORDER BY + LIMIT
// never materializes the full input.
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

// order reports how one key decides between two rows (NULLS FIRST
// ascending, flipped by Desc): negative the left row sorts first,
// positive the right row, 0 undecided. c compares the two values when
// neither is NULL (0 for equal or incomparable).
func (k OrderKey) order(lNull, rNull bool, c int) int {
	switch {
	case lNull && rNull:
		c = 0
	case lNull:
		c = -1
	case rNull:
		c = 1
	}
	if k.Desc {
		c = -c
	}
	return c
}

// rowLess reports whether row a sorts strictly before row b.
func (o *OrderBy) rowLess(a, b []expr.Value) bool {
	for _, k := range o.Keys {
		av, bv := k.E.Eval(a), k.E.Eval(b)
		c, _ := expr.Compare(av, bv) // 0 when either is NULL
		if c = k.order(av.Null, bv.Null, c); c != 0 {
			return c < 0
		}
	}
	return false
}

// topKHeap is a max-heap of the K best rows seen so far (the root is
// the worst retained row); a new row replaces the root only when it
// sorts strictly before it. Memory is O(K) regardless of input size.
// rootKeys caches the root's key values, which candidate rows are
// compared against on their typed vectors — a row is boxed only when
// it enters the heap.
type topKHeap struct {
	o        *OrderBy
	rows     [][]expr.Value
	rootKeys []expr.Value
}

// worse reports whether rows[i] sorts after rows[j] — the max-heap
// ordering that keeps the worst retained row at the root.
func (h *topKHeap) worse(i, j int) bool { return h.o.rowLess(h.rows[j], h.rows[i]) }

// push adds a boxed row the heap may retain; the caller has checked
// that it beats the root when the heap is full.
func (h *topKHeap) push(row []expr.Value) {
	if len(h.rows) < h.o.Limit {
		h.rows = append(h.rows, row)
		for i := len(h.rows) - 1; i > 0; { // sift up
			p := (i - 1) / 2
			if !h.worse(i, p) {
				break
			}
			h.rows[i], h.rows[p] = h.rows[p], h.rows[i]
			i = p
		}
	} else {
		h.rows[0] = row
		for i := 0; ; { // sift down
			l, r, big := 2*i+1, 2*i+2, i
			if l < len(h.rows) && h.worse(l, big) {
				big = l
			}
			if r < len(h.rows) && h.worse(r, big) {
				big = r
			}
			if big == i {
				break
			}
			h.rows[i], h.rows[big] = h.rows[big], h.rows[i]
			i = big
		}
	}
	for k, key := range h.o.Keys {
		h.rootKeys[k] = key.E.Eval(h.rows[0])
	}
}

// beatsRoot reports whether row i of the evaluated key vectors sorts
// strictly before the heap's root.
func (h *topKHeap) beatsRoot(keys []*vec.Vector, i int) bool {
	for k, key := range h.o.Keys {
		v, root := keys[k], h.rootKeys[k]
		null, c := v.IsNull(i), 0
		if !null && !root.Null {
			c, _ = vec.CompareCellValue(v, i, root)
		}
		if c = key.order(null, root.Null, c); c != 0 {
			return c < 0
		}
	}
	return false
}

// RunBatches implements Operator. Rows are collected per worker —
// every row, or with a Limit each worker's K best (a superset of its
// share of the global top K) — then concatenated worker-ascending,
// stably sorted and cut.
func (o *OrderBy) RunBatches(workers int, emit BatchEmitFunc) {
	width := len(o.Columns())
	keyExprs := make([]expr.Expr, len(o.Keys))
	for i, k := range o.Keys {
		keyExprs[i] = k.E
	}
	keys := compileAll(keyExprs)
	type state struct {
		heap topKHeap
		ev   *evaluator
	}
	states := perWorker(workers, func() state {
		return state{heap: topKHeap{o: o, rootKeys: make([]expr.Value, len(keys))}, ev: newEvaluator(keys)}
	})
	o.In.RunBatches(workers, func(w int, b *vec.Batch) {
		h := &states[w].heap
		if o.Limit <= 0 {
			h.rows = appendBoxedRows(h.rows, b)
			return
		}
		kv := states[w].ev.eval(b)
		boxed := 0
		for _, i := range b.Selected() {
			if len(h.rows) < o.Limit || h.beatsRoot(kv, int(i)) {
				row := make([]expr.Value, width)
				boxRow(b, int(i), row)
				h.push(row)
				boxed++
			}
		}
		obs.RowsBoxed.Add(int64(boxed))
	})
	var rows [][]expr.Value
	for i := range states {
		rows = append(rows, states[i].heap.rows...)
	}
	sort.SliceStable(rows, func(i, j int) bool { return o.rowLess(rows[i], rows[j]) })
	if o.Limit > 0 && len(rows) > o.Limit {
		rows = rows[:o.Limit]
	}
	emitRows(o.Columns(), rows, emit)
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
	l.In.RunBatches(workers, func(w int, b *vec.Batch) {
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
