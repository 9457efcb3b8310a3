package storage

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/keypath"
	"repro/internal/vec"
)

// One walk per document: stage 3 of fillBatch fills every access a tile
// serves from binary JSON in a single descent per live row, instead of
// one root-to-leaf lookup per access. The walk visits the accesses in
// path order, so each looks up only the steps past the prefix it shares
// with the one before it: entities.hashtags[0..23].text look entities
// and hashtags up once. A key or slot the document lacks makes every
// following access that shares it NULL without another lookup, and as
// JSON arrays are dense, a missing slot does the same for the later
// slots of its array. Each cell is written into its access's typed
// vector through docPut, as a per-access read (docLookup, then docPut)
// writes it, so a walked cell and a looked-up cell cannot differ; a
// NULL cell is not written at all, since the vector starts all NULL.

// walkPaths is a scan's walked accesses in path order, sorted once per
// scan and shared read-only by its workers: shared[k] is the number of
// leading steps the path of access order[k] shares with that of
// order[k-1].
type walkPaths struct {
	order, shared []int
}

// sortWalkPaths sorts the accesses include admits by path.
func sortWalkPaths(accesses []Access, include func(ai int) bool) walkPaths {
	var wp walkPaths
	for ai := range accesses {
		if include(ai) {
			wp.order = append(wp.order, ai)
		}
	}
	slices.SortStableFunc(wp.order, func(x, y int) int {
		return slices.CompareFunc(accesses[x].Path.Segs, accesses[y].Path.Segs, compareSteps)
	})
	wp.shared = make([]int, len(wp.order))
	for k := 1; k < len(wp.order); k++ {
		prev, cur := accesses[wp.order[k-1]].Path.Segs, accesses[wp.order[k]].Path.Segs
		n := 0
		for n < len(prev) && n < len(cur) && prev[n] == cur[n] {
			n++
		}
		wp.shared[k] = n
	}
	return wp
}

// compareSteps orders path steps: keys before slots, keys by name and
// slots by index.
func compareSteps(a, b keypath.Segment) int {
	if a.IsIndex != b.IsIndex {
		if a.IsIndex {
			return 1
		}
		return -1
	}
	return cmp.Or(cmp.Compare(a.Index, b.Index), strings.Compare(a.Key, b.Key))
}

// docWalk is one worker's walk over the current tile: the accesses the
// tile serves from documents, as cells in path order, and per depth the
// value the row's walk reached there (docs[0] is the document, loaded
// only for a path that starts at the root or with a slot: a first key
// step reads the row's member from its cell's part, docRows).
type docWalk struct {
	cells  []walkCell
	docs   []jsonb.Doc
	rooted bool // docs[0] holds the current row's document
}

// walkCell is one document-served access: the buffer of the vector the
// walk fills, the type it reads, its path, the number of leading steps
// that path shares with the cell before, and, for a cell whose first
// step the walk takes, the part holding that key.
type walkCell struct {
	out    *vec.Buf
	want   expr.SQLType
	path   []keypath.Segment
	shared int
	first  docRows
}

// activate fits the walk to a tile on which plans[ai].serve == serveDoc
// marks the accesses the documents serve; access ai fills out[ai]. In
// path order, two paths share the fewest steps any path between them
// shares with its predecessor, so a kept cell takes the running minimum
// of shared since the last kept one. It reports false when no access is
// served from documents.
func (w *docWalk) activate(wp *walkPaths, plans []accessPlan, accesses []Access, out []vec.Buf) bool {
	w.cells = w.cells[:0]
	depth, shared := 0, 0
	for k, ai := range wp.order {
		shared = min(shared, wp.shared[k])
		if plans[ai].serve != serveDoc {
			continue
		}
		path := accesses[ai].Path.Segs
		w.cells = append(w.cells, walkCell{out: &out[ai], want: accesses[ai].Type, path: path, shared: shared})
		depth = max(depth, len(path))
		shared = math.MaxInt
	}
	w.docs = resize(w.docs, depth+1)
	return len(w.cells) > 0
}

// row walks document d of row i, writing each cell's value of row i.
// reached counts the steps of the previous cell's path the walk found,
// and gap is that count when the step that failed was a slot. A cell
// sharing more steps than reached shares the one that failed; one
// sharing exactly gap steps whose next step is a slot indexes the same
// array past the slot it lacks (path order puts the array's own path
// before its slots, so that cell has a step at gap). Either is NULL
// without a lookup; any other cell looks up only the steps past its
// shared prefix.
func (w *docWalk) row(t scanTile, i int, cnt *scanCounters) {
	w.rooted = false
	reached, gap := 0, -1
	for k := range w.cells {
		c := &w.cells[k]
		if c.shared > reached || c.shared == gap && c.path[gap].IsIndex {
			continue
		}
		gap = -1
		for reached = c.shared; reached < len(c.path); reached++ {
			next, ok := w.step(t, c, i, reached)
			if !ok {
				break
			}
			w.docs[reached+1] = next
		}
		switch {
		case reached == len(c.path):
			docPut(c.out, i, w.value(t, i, reached), c.want, cnt)
		case c.path[reached].IsIndex:
			gap = reached
		}
	}
}

// step follows step k of cell c's path from the value the walk reached
// at depth k; a first step that is a key reads row i's member.
func (w *docWalk) step(t scanTile, c *walkCell, i, k int) (jsonb.Doc, bool) {
	if seg := c.path[k]; k > 0 || seg.IsIndex {
		return docStep(w.value(t, i, k), seg)
	}
	return c.first.member(t, i, c.path[0].Key)
}

// value is the value the walk reached at depth k, loading row i's
// document for depth 0.
func (w *docWalk) value(t scanTile, i, k int) jsonb.Doc {
	if k == 0 && !w.rooted {
		w.docs[0], w.rooted = t.Raw(i), true
	}
	return w.docs[k]
}
