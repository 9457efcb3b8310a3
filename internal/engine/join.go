package engine

import (
	"repro/internal/vec"
)

// JoinType selects hash-join semantics.
type JoinType uint8

// Join types. Build side is Left; probe side is Right. Inner emits
// probe++build columns; Semi and Anti emit only probe columns; Outer
// (left-outer over the probe side) emits probe++build with NULL build
// columns for unmatched probes.
const (
	InnerJoin JoinType = iota
	SemiJoin
	AntiJoin
	OuterJoin
)

// HashJoin joins Right (probe) against Left (build) on equi-keys. A
// NULL key never matches, and keys match only when their SQL types do
// (vec.KeyEq).
type HashJoin struct {
	Left, Right         Operator // build, probe
	LeftKeys, RightKeys []int    // slot indexes
	Type                JoinType
}

// NewHashJoin builds a hash join.
func NewHashJoin(build, probe Operator, buildKeys, probeKeys []int, jt JoinType) *HashJoin {
	return &HashJoin{Left: build, Right: probe, LeftKeys: buildKeys, RightKeys: probeKeys, Type: jt}
}

// Columns implements Operator.
func (j *HashJoin) Columns() []ColumnDesc {
	probe := j.Right.Columns()
	if !j.emitsBuild() {
		return probe
	}
	return append(append([]ColumnDesc{}, probe...), j.Left.Columns()...)
}

func (j *HashJoin) emitsBuild() bool { return j.Type == InnerJoin || j.Type == OuterJoin }

// Inputs implements the plan-walking interface (build side first).
func (j *HashJoin) Inputs() []Operator { return []Operator{j.Left, j.Right} }

// joinBuild is the build side: its rows with non-NULL keys copied into
// typed columns, indexed by a table over the key columns. Rows with
// equal keys are chained through next in build order.
type joinBuild struct {
	cols  []vec.Buf // every build column, or just the keys for semi/anti
	keys  []*vec.Vector
	table keyTable
	next  []int32
	dups  bool // some key occurs more than once
}

// build drains the build side into per-worker column buffers (no
// per-row copy, no lock), concatenates them worker-ascending and
// indexes the result.
func (j *HashJoin) build(workers int) *joinBuild {
	desc := j.Left.Columns()
	keep := j.LeftKeys // slots copied, in cols order
	if j.emitsBuild() {
		keep = make([]int, len(desc))
		for i := range keep {
			keep[i] = i
		}
	}
	kept := make([]ColumnDesc, len(keep))
	for c, slot := range keep {
		kept[c] = desc[slot]
	}
	type state struct {
		keys []*vec.Vector
		sel  []int32
	}
	cols := perWorker(workers, func() []vec.Buf { return newBufs(kept) })
	states := perWorker(workers, func() state { return state{keys: make([]*vec.Vector, len(j.LeftKeys))} })
	run(j.Left, workers, func(w int, b *vec.Batch) {
		st := &states[w]
		for k, slot := range j.LeftKeys {
			st.keys[k] = &b.Cols[slot]
		}
		sel := b.Selected()
		st.sel = vec.NotNullSel(st.keys, sel, vec.Resize(st.sel, len(sel))[:0])
		for c, slot := range keep {
			cols[w][c].AppendVector(&b.Cols[slot], st.sel, b.Len)
		}
	})
	for _, st := range states {
		vec.Recycle(st.sel)
	}
	for c := range kept {
		appendParts(cols, c)
	}
	jb := &joinBuild{cols: cols[0], keys: make([]*vec.Vector, len(j.LeftKeys))}
	for k, slot := range j.LeftKeys {
		if j.emitsBuild() {
			jb.keys[k] = jb.cols[slot].Vector()
		} else {
			jb.keys[k] = jb.cols[k].Vector()
		}
	}
	n := jb.cols[0].Len()
	jb.table.init(n)
	jb.table.hashes = vec.Resize[uint64](nil, n)
	jb.next = vec.Resize[int32](nil, n)
	vec.HashKeys(jb.keys, vec.Iota(n), jb.table.hashes)
	eq := vec.KeyEq(jb.keys, jb.keys)
	// Back to front, each row becoming its key's chain head: chains end
	// up in build order.
	for r := n - 1; r >= 0; r-- {
		head, slot := jb.table.lookup(jb.table.hashes[r], r, eq)
		jb.next[r] = int32(head)
		jb.table.slots[slot] = int32(r + 1)
		jb.dups = jb.dups || head >= 0
	}
	return jb
}

// release hands the build side's columns and index to the recycler.
func (jb *joinBuild) release() {
	releaseBufs(jb.cols)
	jb.table.release()
	vec.Recycle(jb.next)
}

// expandChunk bounds the rows of one output batch on the multi-match
// path.
const expandChunk = 4096

// RunBatches implements Operator. The probe side streams through: a
// batch's keys are hashed and looked up as a whole; semi and anti
// joins only narrow the selection vector; inner and outer joins whose
// probe rows match at most one build row keep the probe vectors
// aliased and gather just the build columns next to them; only a
// batch with a multi-match row is expanded on both sides.
func (j *HashJoin) RunBatches(workers int, emit BatchEmitFunc) {
	jb := j.build(workers)
	type state struct {
		keys   []*vec.Vector
		hashes []uint64
		heads  []int32 // per probe row: first matching build row, or -1
		nn     []int32
		sel    []int32
		pi, bi []int32   // multi-match pairs
		gather []vec.Buf // per output column, made on first use
		out    vec.Batch
	}
	probeWidth, width := len(j.Right.Columns()), len(j.Columns())
	mayExpand := j.emitsBuild() && jb.dups
	states := perWorker(workers, func() state {
		return state{keys: make([]*vec.Vector, len(j.RightKeys)),
			out: vec.Batch{Cols: make([]vec.Vector, 0, width)}}
	})
	gather := func(st *state, c int) *vec.Buf {
		if st.gather == nil {
			st.gather = make([]vec.Buf, probeWidth+len(jb.cols))
		}
		return &st.gather[c]
	}
	run(j.Right, workers, func(w int, b *vec.Batch) {
		st := &states[w]
		sel := b.Selected()
		for k, slot := range j.RightKeys {
			st.keys[k] = &b.Cols[slot]
		}
		st.nn = vec.NotNullSel(st.keys, sel, vec.Resize(st.nn, len(sel))[:0])
		st.hashes, st.heads = vec.Resize(st.hashes, b.Len), vec.Resize(st.heads, b.Len)
		hashes, heads := st.hashes, st.heads
		vec.HashKeys(st.keys, st.nn, hashes)
		for _, i := range sel {
			heads[i] = -1
		}
		eq := vec.KeyEq(st.keys, jb.keys)
		for _, i := range st.nn {
			row, _ := jb.table.lookup(hashes[i], int(i), eq)
			heads[i] = int32(row)
		}
		out, multi := vec.Resize(st.sel, len(sel))[:0], false
		for _, i := range sel {
			switch h := heads[i]; {
			case h >= 0 && j.Type != AntiJoin:
				out = append(out, i)
				multi = multi || (mayExpand && jb.next[h] >= 0)
			case h < 0 && (j.Type == AntiJoin || j.Type == OuterJoin):
				out = append(out, i)
			}
		}
		st.sel = out
		if len(out) == 0 {
			return
		}
		if !multi {
			st.out = vec.Batch{Cols: append(st.out.Cols[:0], b.Cols...), Len: b.Len, Sel: out, Base: b.Base}
			if j.emitsBuild() {
				for c := range jb.cols {
					st.out.Cols = append(st.out.Cols, *gather(st, probeWidth+c).Gather(jb.cols[c].Vector(), heads, out))
				}
			}
			emit(w, &st.out)
			return
		}
		// Every (probe row, build row) pair; an unmatched outer row
		// pairs with -1.
		st.pi, st.bi = st.pi[:0], st.bi[:0]
		for _, i := range out {
			r := heads[i]
			st.pi, st.bi = vec.Push(st.pi, i), vec.Push(st.bi, r)
			for r >= 0 && jb.next[r] >= 0 {
				r = jb.next[r]
				st.pi, st.bi = vec.Push(st.pi, i), vec.Push(st.bi, r)
			}
		}
		for lo := 0; lo < len(st.pi); lo += expandChunk {
			hi := min(lo+expandChunk, len(st.pi))
			st.out = vec.Batch{Cols: st.out.Cols[:0], Len: hi - lo, Base: b.Base}
			for c := range b.Cols {
				st.out.Cols = append(st.out.Cols, *gather(st, c).Gather(&b.Cols[c], st.pi[lo:hi], nil))
			}
			for c := range jb.cols {
				st.out.Cols = append(st.out.Cols, *gather(st, probeWidth+c).Gather(jb.cols[c].Vector(), st.bi[lo:hi], nil))
			}
			emit(w, &st.out)
		}
	})
	// Every batch emitted is dead (BatchEmitFunc), and with it all the
	// join held.
	jb.release()
	for w := range states {
		st := &states[w]
		for _, s := range [][]int32{st.heads, st.nn, st.sel, st.pi, st.bi} {
			vec.Recycle(s)
		}
		vec.Recycle(st.hashes)
		releaseBufs(st.gather)
	}
}
