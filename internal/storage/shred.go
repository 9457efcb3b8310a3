package storage

import (
	"context"
	"sort"

	"repro/internal/expr"
	"repro/internal/jsontape"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/stats"
)

// shredded implements Dremel-style record shredding [42], the stand-in
// for the Spark/Parquet competitor: *every* key path observed anywhere
// in the table becomes a striped column, with presence encoded as
// definition levels (here: a sorted row-id list per column, the moral
// equivalent of packed def-levels). There is no threshold, no
// locality, and no binary-JSON fallback — record reassembly rebuilds
// documents from the stripes, which is exactly the work the paper
// blames for Parquet's CPU-bound scans on heterogeneous data ("many
// different optional fields have to be handled while evaluating the
// access automata").
type shredded struct {
	name    string
	numRows int
	cols    []*sparseColumn
	byItem  map[keypath.Item]int
	byPath  map[string][]int
	// pathsSorted supports record reassembly in deterministic order;
	// parsedPaths caches the parsed forms for prefix checks.
	pathsSorted []string
	parsedPaths []keypath.Path
}

// sparseColumn stores only present values: rows[i] is the row id of
// vals[i], sorted ascending — reading in row order advances a cursor.
type sparseColumn struct {
	item keypath.Item
	rows []int32
	ints []int64
	flts []float64
	strs []string
	bls  []bool
}

// appendTape appends row's value, decoded straight from a tape node.
func (c *sparseColumn) appendTape(row int, n jsontape.Node) {
	c.rows = append(c.rows, int32(row))
	switch c.item.Type {
	case keypath.TypeBigInt:
		c.ints = append(c.ints, n.IntVal())
	case keypath.TypeDouble:
		c.flts = append(c.flts, n.FloatVal())
	case keypath.TypeString:
		c.strs = append(c.strs, n.StringVal())
	case keypath.TypeBool:
		c.bls = append(c.bls, n.BoolVal())
	case keypath.TypeNull, keypath.TypeObject, keypath.TypeArray:
		// Nulls and empty containers: presence only, no payload.
	}
}

func (c *sparseColumn) jsonValue(pos int) jsonvalue.Value {
	switch c.item.Type {
	case keypath.TypeBigInt:
		return jsonvalue.Int(c.ints[pos])
	case keypath.TypeDouble:
		return jsonvalue.Float(c.flts[pos])
	case keypath.TypeString:
		return jsonvalue.String(c.strs[pos])
	case keypath.TypeBool:
		return jsonvalue.Bool(c.bls[pos])
	case keypath.TypeObject:
		return jsonvalue.Object()
	case keypath.TypeArray:
		return jsonvalue.Array()
	}
	return jsonvalue.Null()
}

// shredMaxArraySlots: shredding must be lossless, so arrays are
// striped to their full length (up to a generous bound), unlike the
// tile extractor's leading-slot cap. This is what makes
// high-cardinality arrays painful for the shredded format — column
// explosion — matching the paper's observations.
const shredMaxArraySlots = 4096

type shredLoader struct{ cfg LoaderConfig }

// Load shreds the documents: stripes are appended straight from tape
// nodes. A shared dictionary maps (path, type) items to column indexes
// so the per-leaf path string is allocated only on a column's first
// appearance. A null leaf is a presence-only stripe, so reassembly
// renders it.
func (l shredLoader) Load(name string, lines [][]byte, workers int) (Relation, error) {
	tapes, err := parseAllTapes(lines, workers)
	if err != nil {
		return nil, err
	}
	obs.IngestDocsTape.Add(int64(len(tapes)))
	r := &shredded{
		name:    name,
		numRows: len(tapes),
		byItem:  map[keypath.Item]int{},
		byPath:  map[string][]int{},
	}
	dict := keypath.NewDict()
	var colOfID []int32
	for i, d := range tapes {
		keypath.CollectTape(d, shredMaxArraySlots, func(pathEnc []byte, t keypath.ValueType, n jsontape.Node) {
			id := dict.AddBytes(pathEnc, t)
			for int(id) >= len(colOfID) {
				colOfID = append(colOfID, -1)
			}
			ci := colOfID[id]
			if ci < 0 {
				it := dict.Item(id)
				ci = int32(len(r.cols))
				colOfID[id] = ci
				r.byItem[it] = int(ci)
				r.cols = append(r.cols, &sparseColumn{item: it})
				r.byPath[it.Path] = append(r.byPath[it.Path], int(ci))
			}
			r.cols[ci].appendTape(i, n)
		})
	}
	return finishShredded(r)
}

func finishShredded(r *shredded) (Relation, error) {
	for p := range r.byPath {
		r.pathsSorted = append(r.pathsSorted, p)
	}
	sort.Strings(r.pathsSorted)
	for _, enc := range r.pathsSorted {
		if parsed, err := keypath.ParsePath(enc); err == nil {
			r.parsedPaths = append(r.parsedPaths, parsed)
		}
	}
	return r, nil
}

func (r *shredded) Name() string             { return r.name }
func (r *shredded) NumRows() int             { return r.numRows }
func (r *shredded) Stats() *stats.TableStats { return nil }

func (r *shredded) SizeBytes() int {
	total := 0
	for _, c := range r.cols {
		total += len(c.rows)*4 + len(c.ints)*8 + len(c.flts)*8 + len(c.bls)
		for _, s := range c.strs {
			total += len(s) + 4
		}
	}
	return total
}

// NumColumns reports the stripe count (tests: column explosion on
// high-cardinality arrays).
func (r *shredded) NumColumns() int { return len(r.cols) }

// ScanBatches implements BatchScanner with boxed cells only: the
// shredded format has neither tiles nor a binary-JSON fallback — record
// reassembly is its cost model, not fallback counts.
func (r *shredded) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	// Per access: whether every row reassembles, the stripes holding
	// its path, and whether a row they miss may hold a container there.
	reassemble := make([]bool, len(accesses))
	prefixed := make([]bool, len(accesses))
	stripes := make([][]*sparseColumn, len(accesses))
	for ai, a := range accesses {
		if a.Type == expr.TJSON {
			reassemble[ai] = true
			continue
		}
		// A path with striped descendants names a non-empty container
		// in at least some rows: those rows need record re-assembly
		// (Dremel's record-assembly cost) even when a direct column
		// exists for rows where the path is scalar.
		prefixed[ai] = r.hasPrefix(a.Path)
		if len(r.byPath[a.PathEnc]) == 0 && prefixed[ai] {
			reassemble[ai] = true
			continue
		}
		for _, ci := range r.byPath[a.PathEnc] {
			stripes[ai] = append(stripes[ai], r.cols[ci])
		}
	}
	scanCells(ctx, r.numRows, accesses, workers, emit, st, func(lo, hi int, cols [][]expr.Value, cnt *scanCounters) {
		for ai, a := range accesses {
			out := cols[ai]
			if reassemble[ai] {
				for i := lo; i < hi; i++ {
					out[i-lo] = r.reassembleAccess(i, a, cnt)
				}
				continue
			}
			// Per-stripe cursors from the batch's first row: the
			// def-level walk of record shredding.
			cs := stripes[ai]
			pos := make([]int, len(cs))
			for k, c := range cs {
				pos[k] = sort.Search(len(c.rows), func(j int) bool { return int(c.rows[j]) >= lo })
			}
			for i := lo; i < hi; i++ {
				v, hit := expr.NullValue(), false
				for k, c := range cs {
					for pos[k] < len(c.rows) && int(c.rows[pos[k]]) < i {
						pos[k]++
					}
					if pos[k] < len(c.rows) && int(c.rows[pos[k]]) == i {
						v, hit = treeValue(c.jsonValue(pos[k]), a.Type, cnt), true
						break
					}
				}
				if !hit && prefixed[ai] {
					v = r.reassembleAccess(i, a, cnt)
				}
				out[i-lo] = v
			}
		}
	})
}

// reassembleAccess rebuilds the sub-document rooted at the access path
// for row i from the stripes — Dremel record assembly, paid on every
// -> access and on container-valued ->> accesses.
func (r *shredded) reassembleAccess(i int, a Access, cnt *scanCounters) expr.Value {
	return treeAccess(r.Reassemble(i), a.Path, a.Type, cnt)
}

// hasPrefix reports whether any striped path lies strictly below p.
func (r *shredded) hasPrefix(p keypath.Path) bool {
	for _, parsed := range r.parsedPaths {
		if len(parsed.Segs) <= len(p.Segs) {
			continue
		}
		match := true
		for i, seg := range p.Segs {
			if parsed.Segs[i] != seg {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Reassemble reconstructs the full document of row i from the columns.
// Key order and empty containers are not preserved (inherent to
// shredding); values and structure are.
func (r *shredded) Reassemble(i int) jsonvalue.Value {
	root := newShredNode()
	for _, pathEnc := range r.pathsSorted {
		for _, ci := range r.byPath[pathEnc] {
			c := r.cols[ci]
			pos := sort.Search(len(c.rows), func(k int) bool { return int(c.rows[k]) >= i })
			if pos >= len(c.rows) || int(c.rows[pos]) != i {
				continue
			}
			p, err := keypath.ParsePath(pathEnc)
			if err != nil {
				continue
			}
			root.insert(p.Segs, c.jsonValue(pos))
		}
	}
	return root.build()
}

// shredNode is a mutable tree used during reassembly.
type shredNode struct {
	leaf     *jsonvalue.Value
	children map[string]*shredNode // object keys
	slots    map[int]*shredNode    // array slots
	keys     []string              // insertion order
}

func newShredNode() *shredNode {
	return &shredNode{children: map[string]*shredNode{}, slots: map[int]*shredNode{}}
}

func (n *shredNode) insert(segs []keypath.Segment, v jsonvalue.Value) {
	if len(segs) == 0 {
		n.leaf = &v
		return
	}
	s := segs[0]
	if s.IsIndex {
		child, ok := n.slots[s.Index]
		if !ok {
			child = newShredNode()
			n.slots[s.Index] = child
		}
		child.insert(segs[1:], v)
		return
	}
	child, ok := n.children[s.Key]
	if !ok {
		child = newShredNode()
		n.children[s.Key] = child
		n.keys = append(n.keys, s.Key)
	}
	child.insert(segs[1:], v)
}

func (n *shredNode) build() jsonvalue.Value {
	if n.leaf != nil {
		return *n.leaf
	}
	if len(n.slots) > 0 {
		max := -1
		for idx := range n.slots {
			if idx > max {
				max = idx
			}
		}
		elems := make([]jsonvalue.Value, max+1)
		for idx := range elems {
			if c, ok := n.slots[idx]; ok {
				elems[idx] = c.build()
			} else {
				elems[idx] = jsonvalue.Null()
			}
		}
		return jsonvalue.Array(elems...)
	}
	members := make([]jsonvalue.Member, 0, len(n.keys))
	for _, k := range n.keys {
		members = append(members, jsonvalue.M(k, n.children[k].build()))
	}
	return jsonvalue.Object(members...)
}
