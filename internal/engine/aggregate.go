package engine

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/vec"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions. CountStar counts rows; Count counts non-null
// arguments; Sum/Avg/Min/Max skip NULLs per SQL.
const (
	CountStar AggFunc = iota
	Count
	Sum
	Avg
	Min
	Max
)

// AggSpec is one aggregate in a GROUP BY.
type AggSpec struct {
	Func     AggFunc
	Arg      expr.Expr // nil for CountStar
	Name     string
	Distinct bool // COUNT(DISTINCT x) style
}

// GroupBy is a hash aggregation operator. Each worker groups its
// batches into its own typed hash table (keys in column buffers,
// aggregate states in flat arrays indexed by group id); the merge
// phase splits the groups into P partitions by key hash and folds each
// partition's groups worker-ascending, on sched.For — partitions merge
// independently, no shared table (morsel-driven parallelism's partitioned
// aggregation). Groups are emitted in key order (NULL first, then by
// SQL type and value), so output does not depend on the worker count.
// NULL keys form one group; keys of different SQL types, and floats of
// different bit patterns, are different groups.
type GroupBy struct {
	In     Operator
	Groups []expr.Expr
	Names  []string
	Aggs   []AggSpec

	// lastPartitions records the partition fan-out of the most recent
	// run's merge phase (EXPLAIN ANALYZE `agg_partitions=`);
	// lastDictBatches the batches that run grouped by dictionary code.
	lastPartitions  atomic.Int64
	lastDictBatches atomic.Int64
}

// Partitions reports the hash-partition fan-out of the last
// execution's merge phase: 0 before any run, 1 for a serial merge
// (workers <= 1 or the global-aggregation kernel path).
func (g *GroupBy) Partitions() int64 { return g.lastPartitions.Load() }

// DictBatches reports how many batches the last execution grouped
// through the code-indexed fast path (0 before any run).
func (g *GroupBy) DictBatches() int64 { return g.lastDictBatches.Load() }

// aggPartitionCount picks the merge fan-out: 1 keeps the serial merge
// at workers <= 1; otherwise the next power of two >= 2×workers so
// every merge goroutine has partitions to pull even under skewed
// group distributions, capped at 64 so tiny aggregations don't pay
// setup for mostly-empty partitions.
func aggPartitionCount(workers int) int {
	if workers <= 1 {
		return 1
	}
	p := 2
	for p < 2*workers && p < 64 {
		p <<= 1
	}
	return p
}

// NewGroupBy builds a hash aggregation.
func NewGroupBy(in Operator, groups []expr.Expr, names []string, aggs []AggSpec) *GroupBy {
	return &GroupBy{In: in, Groups: groups, Names: names, Aggs: aggs}
}

// Columns implements Operator.
func (g *GroupBy) Columns() []ColumnDesc {
	out := make([]ColumnDesc, 0, len(g.Groups)+len(g.Aggs))
	for i, e := range g.Groups {
		name := ""
		if i < len(g.Names) {
			name = g.Names[i]
		}
		out = append(out, ColumnDesc{Name: name, Type: e.Type()})
	}
	for _, a := range g.Aggs {
		out = append(out, ColumnDesc{Name: a.Name, Type: a.resultType()})
	}
	return out
}

func (a AggSpec) resultType() expr.SQLType {
	switch a.Func {
	case CountStar, Count:
		return expr.TBigInt
	case Avg:
		return expr.TFloat
	case Sum:
		if a.Arg != nil && a.Arg.Type() == expr.TBigInt {
			return expr.TBigInt
		}
		return expr.TFloat
	default:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return expr.TNull
	}
}

// Inputs implements the plan-walking interface.
func (g *GroupBy) Inputs() []Operator { return []Operator{g.In} }

// aggKind is the state layout an aggregate needs.
type aggKind uint8

const (
	aggCounts aggKind = iota // COUNT(*), COUNT(x), and every DISTINCT (counted from its set)
	aggSums                  // SUM, AVG
	aggMinMax                // MIN, MAX
)

// aggCol holds the running states of one aggregate, one entry per
// group id, in the arrays its kind needs.
type aggCol struct {
	spec AggSpec
	kind aggKind
	cnt  []int64
	sumI []int64
	sumF []float64
	mm   []expr.Value // MIN/MAX so far; a zero Value (TNull) is "none yet"
}

func newAggCol(spec AggSpec) aggCol {
	spec.Distinct = spec.Distinct && spec.Func != CountStar
	a := aggCol{spec: spec, kind: aggMinMax}
	switch {
	case spec.Distinct || spec.Func == CountStar || spec.Func == Count:
		a.kind = aggCounts
	case spec.Func == Sum || spec.Func == Avg:
		a.kind = aggSums
	}
	return a
}

// grow makes room for n groups.
func (a *aggCol) grow(n int) {
	switch a.kind {
	case aggCounts:
		a.cnt = vec.Extend(a.cnt, n)
	case aggSums:
		a.cnt, a.sumI, a.sumF = vec.Extend(a.cnt, n), vec.Extend(a.sumI, n), vec.Extend(a.sumF, n)
	default:
		a.mm = vec.Extend(a.mm, n)
	}
}

// add folds the selected rows (nil: all n) of the evaluated argument
// (nil for COUNT(*)) into the states; gids[i] is row i's group (nil:
// every row is group 0).
func (a *aggCol) add(v *vec.Vector, sel []int32, n int, gids []int32) {
	switch {
	case a.kind == aggCounts:
		vec.AddCounts(v, sel, n, gids, a.cnt)
		return
	case v.AllNull:
		return
	case a.kind == aggSums:
		switch v.Type {
		case expr.TBigInt:
			vec.AddInts(v, sel, n, gids, a.cnt, a.sumI, a.sumF)
		case expr.TFloat:
			vec.AddFloats(v, sel, n, gids, a.cnt, a.sumF)
		default: // timestamps, text, booleans and documents are only counted
			vec.AddCounts(v, sel, n, gids, a.cnt)
		}
		return
	}
	isMin := a.spec.Func == Min
	if gids == nil && (a.mm[0].Typ == expr.TNull || a.mm[0].Typ == v.Type) {
		// Keyless MIN/MAX over a typed numeric vector: one kernel pass
		// seeded with the running value.
		switch cur := &a.mm[0]; {
		case v.Ints != nil:
			if x, ok := vec.MinMax(v, v.Ints, sel, n, isMin, cur.I, cur.Typ != expr.TNull); ok {
				*cur = expr.Value{Typ: v.Type, I: x}
			}
			return
		case v.Floats != nil:
			if x, ok := vec.MinMax(v, v.Floats, sel, n, isMin, cur.F, cur.Typ != expr.TNull); ok {
				*cur = expr.Value{Typ: v.Type, F: x}
			}
			return
		}
	}
	if sel == nil {
		sel = vec.Iota(n)
	}
	gid := func(i int32) int32 {
		if gids == nil {
			return 0
		}
		return gids[i]
	}
	// MIN/MAX: a strictly better candidate replaces the running value;
	// ties and incomparable values keep the earlier one.
	for _, i := range sel {
		if v.IsNull(int(i)) {
			continue
		}
		cur := &a.mm[gid(i)]
		switch {
		case cur.Typ == expr.TNull:
		case cur.Typ == v.Type && v.Ints != nil:
			if x := v.Ints[i]; x != cur.I && (x < cur.I) == isMin {
				cur.I = x
			}
			continue
		case cur.Typ == v.Type && v.Floats != nil:
			if x := v.Floats[i]; (isMin && x < cur.F) || (!isMin && x > cur.F) {
				cur.F = x
			}
			continue
		default:
			if c, ok := vec.CompareCellValue(v, int(i), *cur); !ok || c == 0 || (c < 0) != isMin {
				continue
			}
		}
		*cur = v.Value(int(i))
	}
}

// merge folds group s of o into group d.
func (a *aggCol) merge(d int, o *aggCol, s int) {
	switch {
	case a.spec.Distinct:
	case a.kind == aggCounts:
		a.cnt[d] += o.cnt[s]
	case a.kind == aggSums:
		a.cnt[d] += o.cnt[s]
		a.sumI[d] += o.sumI[s]
		a.sumF[d] += o.sumF[s]
	case o.mm[s].Typ != expr.TNull:
		if cur := a.mm[d]; cur.Typ != expr.TNull {
			c, ok := expr.Compare(o.mm[s], cur)
			if !ok || (a.spec.Func == Min) != (c < 0) || c == 0 {
				return
			}
		}
		a.mm[d] = o.mm[s]
	}
}

func (a *aggCol) result(g int) expr.Value {
	switch {
	case a.kind == aggCounts:
		return expr.IntValue(a.cnt[g])
	case a.kind == aggMinMax && a.mm[g].Typ != expr.TNull:
		return a.mm[g]
	case a.kind == aggMinMax || a.cnt[g] == 0:
		return expr.NullValue()
	case a.spec.Func == Avg:
		return expr.FloatValue(a.sumF[g] / float64(a.cnt[g]))
	case a.spec.resultType() == expr.TBigInt:
		return expr.IntValue(a.sumI[g])
	}
	return expr.FloatValue(a.sumF[g])
}

// groupTable is one set of groups: the typed hash table over the key
// columns plus the aggregate states, both indexed by group id. The
// DISTINCT set of an aggregate is a groupTable without aggregates,
// keyed by (group id, argument).
type groupTable struct {
	keys    []vec.Buf
	keyVecs []*vec.Vector
	table   keyTable
	aggs    []aggCol
	sets    []*groupTable // per aggregate; nil unless DISTINCT
	// Per-batch scratch of assign.
	hashes   []uint64
	gids     []int32
	codeGids []int32
	// dictBatches counts the batches assign grouped by code.
	dictBatches int64
}

func newGroupTable(keyTypes []expr.SQLType, aggs []AggSpec) *groupTable {
	t := &groupTable{keys: make([]vec.Buf, len(keyTypes)), keyVecs: make([]*vec.Vector, len(keyTypes)),
		aggs: make([]aggCol, len(aggs)), sets: make([]*groupTable, len(aggs))}
	t.table.init(0)
	for k, kt := range keyTypes {
		t.keys[k].Reset(kt, 0)
		t.keyVecs[k] = t.keys[k].Vector()
	}
	for i, spec := range aggs {
		t.aggs[i] = newAggCol(spec)
		if t.aggs[i].spec.Distinct {
			t.sets[i] = newGroupTable([]expr.SQLType{expr.TBigInt, spec.Arg.Type()}, nil)
		}
	}
	if len(keyTypes) == 0 {
		t.find(nil, 0, 0, nil) // global aggregation: one group, even over no input
	}
	return t
}

func (t *groupTable) groups() int { return len(t.table.hashes) }

// release hands the table's arrays, its DISTINCT sets' included, to
// the recycler.
func (t *groupTable) release() {
	releaseBufs(t.keys)
	t.table.release()
	for a := range t.aggs {
		vec.Recycle(t.aggs[a].cnt)
		vec.Recycle(t.aggs[a].sumI)
		vec.Recycle(t.aggs[a].sumF)
	}
	for _, set := range t.sets {
		if set != nil {
			set.release()
		}
	}
	vec.Recycle(t.hashes)
	vec.Recycle(t.gids)
	vec.Recycle(t.codeGids)
}

// find returns the id of the group whose key is row i of keys (hash
// h), adding the group when it is new.
func (t *groupTable) find(keys []*vec.Vector, i int, h uint64, eq func(i, row int) bool) int {
	row, slot := t.table.lookup(h, i, eq)
	if row < 0 {
		row = t.table.add(slot, h)
		for k := range t.keys {
			t.keys[k].AppendCell(keys[k], i)
		}
		for a := range t.aggs {
			t.aggs[a].grow(row + 1)
		}
	}
	return row
}

// maxDictCombos bounds the per-batch code → group cache of assign.
const maxDictCombos = 4096

// dictCombos returns how many code combinations the key vectors have
// when all of them are dictionary vectors, 0 when one is not or the
// combinations exceed maxDictCombos.
func dictCombos(keys []*vec.Vector) int {
	combos := 1
	for _, v := range keys {
		if !v.Dict {
			return 0
		}
		if combos *= v.DictLen() + 1; combos > maxDictCombos {
			return 0
		}
	}
	return combos
}

// assign returns, for a batch of n physical rows, each selected row's
// group id (positional; valid until the next assign). Dictionary
// codes are one more key encoding: when every key vector is a
// dictionary vector and there are at least two rows per code
// combination, a row's combined code indexes a per-batch cache of
// group ids, so the table is consulted once per combination instead
// of once per row.
func (t *groupTable) assign(keys []*vec.Vector, sel []int32, n int) []int32 {
	t.hashes, t.gids = vec.Resize(t.hashes, n), vec.Resize(t.gids, n)
	hashes, gids := t.hashes, t.gids
	eq := vec.KeyEq(keys, t.keyVecs)
	combos := dictCombos(keys)
	if combos == 0 || 2*combos > len(sel) {
		vec.HashKeys(keys, sel, hashes)
		for _, i := range sel {
			gids[i] = int32(t.find(keys, int(i), hashes[i], eq))
		}
		return gids
	}
	t.dictBatches++
	t.codeGids = vec.Extend(t.codeGids[:0], combos) // group id + 1; 0 = not looked up yet
	for _, i := range sel {
		code := 0
		for _, v := range keys {
			c := v.DictLen() // the NULL code
			if !v.IsNull(int(i)) {
				c = int(v.CodeAt(int(i)))
			}
			code = code*(v.DictLen()+1) + c
		}
		g := t.codeGids[code]
		if g == 0 {
			g = int32(t.find(keys, int(i), vec.HashRow(keys, int(i)), eq)) + 1
			t.codeGids[code] = g
		}
		gids[i] = g - 1
	}
	return gids
}

// gbWorker is one worker's grouping state.
type gbWorker struct {
	t          *groupTable
	keys, args *evaluator
	// DISTINCT: the (group id, argument) key of the set tables.
	gid64   vec.Vector
	setKeys []*vec.Vector
	setSel  []int32
}

// consume groups one batch and folds it into the aggregate states.
func (w *gbWorker) consume(b *vec.Batch) {
	sel, n := b.Selected(), b.Len
	var gids []int32
	if len(w.t.keys) > 0 {
		gids = w.t.assign(w.keys.eval(b), sel, n)
	}
	args := w.args.eval(b)
	for a := range w.t.aggs {
		col := &w.t.aggs[a]
		v := args[a]
		if !col.spec.Distinct {
			col.add(v, b.Sel, n, gids) // a nil selection keeps the kernels' dense loops
			continue
		}
		w.gid64.Ints = vec.Extend(w.gid64.Ints[:0], n)
		if gids != nil {
			for _, i := range sel {
				w.gid64.Ints[i] = int64(gids[i])
			}
		}
		w.setKeys = append(w.setKeys[:0], &w.gid64, v)
		w.setSel = vec.NotNullSel(w.setKeys[1:], sel, vec.Resize(w.setSel, len(sel))[:0])
		w.t.sets[a].assign(w.setKeys, w.setSel, n)
	}
}

// release hands the worker's scratch, not its table, to the recycler.
func (w *gbWorker) release() {
	w.keys.release()
	w.args.release()
	vec.Recycle(w.gid64.Ints)
	vec.Recycle(w.setSel)
}

// RunBatches implements Operator.
func (g *GroupBy) RunBatches(workers int, emit BatchEmitFunc) {
	keyTypes := make([]expr.SQLType, len(g.Groups))
	for i, e := range g.Groups {
		keyTypes[i] = e.Type()
	}
	argExprs := make([]expr.Expr, len(g.Aggs))
	for i, a := range g.Aggs {
		argExprs[i] = a.Arg
	}
	keys, args := compileAll(g.Groups), compileAll(argExprs)
	ws := perWorker(workers, func() *gbWorker {
		return &gbWorker{t: newGroupTable(keyTypes, g.Aggs), keys: newEvaluator(keys), args: newEvaluator(args),
			gid64: vec.Vector{Type: expr.TBigInt}}
	})
	run(g.In, workers, func(w int, b *vec.Batch) { ws[w].consume(b) })
	var dict int64
	for _, w := range ws {
		dict += w.t.dictBatches
		w.release()
	}
	g.lastDictBatches.Store(dict)
	obs.DictGroupByFastpath.Add(dict)

	// One worker's table is final as it is; several are merged
	// partition by partition (a keyless aggregation has one group,
	// hence one partition).
	parts := []*groupTable{ws[0].t}
	if len(ws) > 1 {
		P := 1
		if len(g.Groups) > 0 {
			P = aggPartitionCount(workers)
		}
		parts = make([]*groupTable, P)
		splits := make([]split, len(ws))
		for i, w := range ws {
			splits[i] = splitGroups(w.t, P)
		}
		sched.For(context.Background(), P, workers, func(_, p int) { parts[p] = mergePartition(splits, keyTypes, g.Aggs, p) })
		if P > 1 {
			obs.AggPartitionedMerges.Inc()
		}
		for i := range splits {
			splits[i].release()
			splits[i].t.release()
		}
	}
	g.lastPartitions.Store(int64(len(parts)))
	g.emitInKeyOrder(parts, emit)
	// The emitted batch is dead (BatchEmitFunc), and with it every
	// table.
	for _, t := range parts {
		t.release()
	}
}

// emitInKeyOrder sorts each partition's groups by key and k-way
// merges the partitions into one output batch.
func (g *GroupBy) emitInKeyOrder(parts []*groupTable, emit BatchEmitFunc) {
	orders := make([][]int32, len(parts))
	for p, t := range parts {
		for a, set := range t.sets {
			if set != nil { // a DISTINCT count is its set's entries per group
				for _, gid := range set.keyVecs[0].Ints {
					t.aggs[a].cnt[gid]++
				}
			}
		}
		orders[p] = slices.Clone(vec.Iota(t.groups()))
		slices.SortFunc(orders[p], func(x, y int32) int { return compareGroups(t, int(x), t, int(y)) })
	}
	out := newBufs(g.Columns())
	total := 0
	for next := make([]int, len(parts)); ; total++ {
		best := -1
		for p, t := range parts {
			if next[p] < len(orders[p]) && (best < 0 ||
				compareGroups(t, int(orders[p][next[p]]), parts[best], int(orders[best][next[best]])) < 0) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		t, r := parts[best], int(orders[best][next[best]])
		next[best]++
		for k, kv := range t.keyVecs {
			out[k].AppendCell(kv, r)
		}
		for a := range t.aggs {
			out[len(t.keys)+a].Value(total, t.aggs[a].result(r))
		}
	}
	if total == 0 {
		return
	}
	batch := vec.Batch{Cols: make([]vec.Vector, len(out)), Len: total}
	for c := range out {
		batch.Cols[c] = *out[c].Vector()
	}
	emit(0, &batch)
	releaseBufs(out)
}

// compareGroups orders group x of table a against group y of table b
// by their keys.
func compareGroups(a *groupTable, x int, b *groupTable, y int) int {
	for k := range a.keyVecs {
		if c := vec.CompareKeyCells(a.keyVecs[k], x, b.keyVecs[k], y); c != 0 {
			return c
		}
	}
	return 0
}

// split lists a worker table's groups partition by partition: P
// partitions (a power of two) by the top bits of the key hash, each
// partition's groups in group-id order. to maps a group to its id in
// the merged table of its partition, which only that partition's merge
// writes.
type split struct {
	t     *groupTable
	shift uint
	rows  []int32 // group ids, partition-major
	start []int   // partition p's groups are rows[start[p]:start[p+1]]
	to    []int32
}

// splitGroups partitions t's groups in one pass over their hashes.
func splitGroups(t *groupTable, P int) split {
	n := t.groups()
	s := split{t: t, shift: uint(64 - bits.TrailingZeros(uint(P))), start: make([]int, P+2),
		rows: vec.Resize[int32](nil, n), to: vec.Resize[int32](nil, n)}
	for _, h := range t.table.hashes {
		s.start[h>>s.shift+2]++
	}
	for p := 2; p < len(s.start); p++ {
		s.start[p] += s.start[p-1]
	}
	for r, h := range t.table.hashes { // start[p+1] runs from p's first slot to p+1's
		s.rows[s.start[h>>s.shift+1]] = int32(r)
		s.start[h>>s.shift+1]++
	}
	s.start = s.start[:P+1]
	return s
}

func (s *split) release() {
	vec.Recycle(s.rows)
	vec.Recycle(s.to)
}

// mergePartition folds the groups of partition p from every worker's
// table into one table. Equal keys hash alike, so partitions merge
// independently; within a group, states merge worker-ascending, which
// fixes the order of float additions.
func mergePartition(splits []split, keyTypes []expr.SQLType, aggs []AggSpec, p int) *groupTable {
	m := newGroupTable(keyTypes, aggs)
	for _, s := range splits {
		t := s.t
		eq := vec.KeyEq(t.keyVecs, m.keyVecs)
		for _, r := range s.rows[s.start[p]:s.start[p+1]] {
			d := m.find(t.keyVecs, int(r), t.table.hashes[r], eq)
			s.to[r] = int32(d)
			for a := range m.aggs {
				m.aggs[a].merge(d, &t.aggs[a], int(r))
			}
		}
		for a, set := range t.sets {
			if set == nil {
				continue
			}
			// The set's entries of this partition, re-keyed to the
			// merged group ids.
			n := set.groups()
			gids := vec.Vector{Type: expr.TBigInt, Ints: vec.Resize[int64](nil, n)}
			sel := vec.Resize[int32](nil, n)[:0]
			for e, gid := range set.keyVecs[0].Ints {
				if int(t.table.hashes[gid]>>s.shift) == p {
					gids.Ints[e] = int64(s.to[gid])
					sel = append(sel, int32(e))
				}
			}
			m.sets[a].assign([]*vec.Vector{&gids, set.keyVecs[1]}, sel, n)
			vec.Recycle(gids.Ints)
			vec.Recycle(sel)
		}
	}
	return m
}
