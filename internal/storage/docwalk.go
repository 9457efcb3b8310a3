package storage

import (
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/keypath"
)

// One walk per document: stage 3 of fillBatch fills every access a tile
// serves from binary JSON in a single descent per live row, over a trie
// of the accesses' paths, instead of one root-to-leaf lookup per access.
// Accesses under a shared prefix (entities.hashtags[0..23].text) look
// the prefix up once, and a key or slot the document lacks ends its
// whole subtree: every access below it is NULL without another lookup.
// Each leaf converts through docValue, as docAccess does, so a walked
// cell and a looked-up cell cannot differ.

// pathTrie merges the paths of a scan's walked accesses into one trie,
// compiled once per scan and shared read-only by its workers. Nodes are
// laid out in preorder, so node i's subtree is nodes[i:nodes[i].end];
// node 0 is the document root.
type pathTrie struct {
	nodes  []trieNode
	leaves []int // access indices, grouped by the node their path ends at
}

type trieNode struct {
	seg    keypath.Segment // the step from the parent (none for the root)
	parent int
	end    int // one past the last node of the subtree
	// The accesses whose path ends here: leaves[leafLo:leafHi].
	leafLo, leafHi int
}

// compilePathTrie builds the trie of the accesses include admits. Equal
// steps share a node; equal paths share one node with a leaf each.
func compilePathTrie(accesses []Access, include func(ai int) bool) pathTrie {
	type node struct {
		seg    keypath.Segment
		kids   []*node
		leaves []int
	}
	root := &node{}
	for ai, a := range accesses {
		if !include(ai) {
			continue
		}
		n := root
		for _, seg := range a.Path.Segs {
			var next *node
			for _, k := range n.kids {
				if k.seg == seg {
					next = k
					break
				}
			}
			if next == nil {
				next = &node{seg: seg}
				n.kids = append(n.kids, next)
			}
			n = next
		}
		n.leaves = append(n.leaves, ai)
	}
	var tr pathTrie
	var flatten func(n *node, parent int)
	flatten = func(n *node, parent int) {
		i := len(tr.nodes)
		tr.nodes = append(tr.nodes, trieNode{seg: n.seg, parent: parent, leafLo: len(tr.leaves)})
		tr.leaves = append(tr.leaves, n.leaves...)
		tr.nodes[i].leafHi = len(tr.leaves)
		for _, k := range n.kids {
			flatten(k, i)
		}
		tr.nodes[i].end = len(tr.nodes)
	}
	flatten(root, -1)
	return tr
}

// docWalk is one worker's walk over the current tile: the trie nodes
// whose subtree holds an access the tile serves from documents, as
// steps in preorder, those accesses as cells in step order, and per
// step the value the row's walk reached.
type docWalk struct {
	steps []walkStep
	cells []walkCell
	docs  []jsonb.Doc
	// Per trie node, while activating: the active nodes of its subtree,
	// and the step it became.
	active, stepOf []int
}

// walkStep is one active trie node: cells[lo:hi] are its own accesses
// and cells[lo:subHi] its subtree's.
type walkStep struct {
	seg           keypath.Segment
	parent        int // step index
	skip          int // the first step past the subtree
	lo, hi, subHi int
}

// walkCell is one document-served access: the boxed vector the walk
// fills, and the type it reads.
type walkCell struct {
	vals []expr.Value
	want expr.SQLType
}

// activate fits the walk to a tile on which plans[ai].serve == serveDoc
// marks the accesses the documents serve, keeping only the subtrees
// that hold one; access ai fills boxed[ai]. It reports false when no
// access is served from documents.
func (w *docWalk) activate(tr *pathTrie, plans []accessPlan, accesses []Access, boxed [][]expr.Value) bool {
	n := len(tr.nodes)
	w.active = resize(w.active, n)
	w.stepOf = resize(w.stepOf, n)
	clear(w.active)
	// Children follow their parent, so a reverse pass sees a node after
	// its whole subtree.
	for i := n - 1; i >= 0; i-- {
		nd := &tr.nodes[i]
		if w.active[i] > 0 || anyDocServed(tr.leaves[nd.leafLo:nd.leafHi], plans) {
			w.active[i]++
		}
		if i > 0 {
			w.active[nd.parent] += w.active[i]
		}
	}
	w.steps, w.cells = w.steps[:0], w.cells[:0]
	if w.active[0] == 0 {
		return false
	}
	for i := 0; i < n; {
		nd := &tr.nodes[i]
		if w.active[i] == 0 {
			i = nd.end
			continue
		}
		s := len(w.steps)
		w.stepOf[i] = s
		st := walkStep{seg: nd.seg, parent: -1, skip: s + w.active[i], lo: len(w.cells)}
		if i > 0 {
			st.parent = w.stepOf[nd.parent]
		}
		for _, ai := range tr.leaves[nd.leafLo:nd.leafHi] {
			if plans[ai].serve == serveDoc {
				w.cells = append(w.cells, walkCell{vals: boxed[ai], want: accesses[ai].Type})
			}
		}
		st.hi = len(w.cells)
		w.steps = append(w.steps, st)
		i++
	}
	for s := range w.steps {
		st := &w.steps[s]
		st.subHi = len(w.cells)
		if st.skip < len(w.steps) {
			st.subHi = w.steps[st.skip].lo
		}
	}
	w.docs = resize(w.docs, len(w.steps))
	return true
}

// anyDocServed reports whether the plans serve one of the accesses from
// documents.
func anyDocServed(accesses []int, plans []accessPlan) bool {
	for _, ai := range accesses {
		if plans[ai].serve == serveDoc {
			return true
		}
	}
	return false
}

// row walks document d of row i, writing each cell's value of row i.
// Every step is looked up at most once; a step the document lacks
// leaves its subtree's cells NULL.
func (w *docWalk) row(d jsonb.Doc, i int, cnt *scanCounters) {
	for s := 0; s < len(w.steps); {
		st := &w.steps[s]
		if s > 0 {
			var ok bool
			if d, ok = docStep(w.docs[st.parent], st.seg); !ok {
				for _, c := range w.cells[st.lo:st.subHi] {
					c.vals[i] = expr.NullValue()
				}
				s = st.skip
				continue
			}
		}
		w.docs[s] = d
		for _, c := range w.cells[st.lo:st.hi] {
			c.vals[i] = docValue(d, c.want, cnt)
		}
		s++
	}
}
