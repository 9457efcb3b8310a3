// Tape-driven key-path collection: the same walk as Collect, but over
// a jsontape.Doc — no jsonvalue tree is built, path strings are
// rendered incrementally into one reused byte buffer, and subtrees
// past the array-slot cap are skipped in O(1) per subtree.
package keypath

import (
	"strconv"

	"repro/internal/jsontape"
)

// TypeOfKind maps a tape node kind to its paired primitive type,
// mirroring TypeOf over jsonvalue kinds.
func TypeOfKind(k jsontape.Kind) ValueType {
	switch k {
	case jsontape.KTrue, jsontape.KFalse:
		return TypeBool
	case jsontape.KInt:
		return TypeBigInt
	case jsontape.KFloat, jsontape.KFloatPre:
		return TypeDouble
	case jsontape.KString, jsontape.KStringEsc:
		return TypeString
	default:
		return TypeNull
	}
}

// TapeCollectFunc receives each leaf of a tape walk: the encoded path
// (valid only for the duration of the call — it aliases the walker's
// buffer), the paired primitive type, and the tape node.
type TapeCollectFunc func(pathEnc []byte, t ValueType, n jsontape.Node)

// CollectTape walks a parsed tape and reports every key-value leaf,
// with semantics identical to Collect over the materialized tree:
// scalars (including null) are leaves, empty containers report
// TypeObject/TypeArray, a scalar root reports nothing, and array
// elements are visited up to maxArraySlots (<=0 selects
// DefaultMaxArraySlots). Paths arrive already encoded (Path.Encode
// form). It returns the number of subtrees skipped by the array-slot
// cap.
func CollectTape(d *jsontape.Doc, maxArraySlots int, fn TapeCollectFunc) (subtreesSkipped int) {
	if maxArraySlots <= 0 {
		maxArraySlots = DefaultMaxArraySlots
	}
	w := tapeWalker{d: d, maxSlots: maxArraySlots, fn: fn}
	w.visit(0, 0, false)
	return w.skipped
}

type tapeWalker struct {
	d        *jsontape.Doc
	maxSlots int
	fn       TapeCollectFunc
	path     []byte // incrementally rendered Path.Encode form
	key      []byte // scratch for decoding escaped keys
	skipped  int
}

// visit processes the subtree at tape index i. prevWasKey carries the
// Encode separator state: '.' joins two adjacent key segments only.
func (w *tapeWalker) visit(i, depth int, prevWasKey bool) {
	d := w.d
	switch d.KindAt(i) {
	case jsontape.KObj:
		n := d.At(i)
		count := n.Count()
		if count == 0 {
			if depth > 0 {
				w.fn(w.path, TypeObject, n)
			}
			return
		}
		j := i + 1
		for k := 0; k < count; k++ {
			save := len(w.path)
			w.appendKeySegment(d.At(j), prevWasKey)
			w.visit(j+1, depth+1, true)
			w.path = w.path[:save]
			j = d.Skip(j + 1)
		}
	case jsontape.KArr:
		n := d.At(i)
		count := n.Count()
		if count == 0 {
			if depth > 0 {
				w.fn(w.path, TypeArray, n)
			}
			return
		}
		visit := count
		if visit > w.maxSlots {
			visit = w.maxSlots
			w.skipped += count - visit
		}
		j := i + 1
		for k := 0; k < visit; k++ {
			save := len(w.path)
			w.path = append(w.path, '[')
			w.path = strconv.AppendInt(w.path, int64(k), 10)
			w.path = append(w.path, ']')
			w.visit(j, depth+1, false)
			w.path = w.path[:save]
			j = d.Skip(j)
		}
	default:
		if depth == 0 {
			return // scalar root: no key-value pair to speak of
		}
		w.fn(w.path, TypeOfKind(d.KindAt(i)), d.At(i))
	}
}

// appendKeySegment renders one object-key segment exactly as
// Path.Encode does: '.' before it iff the previous segment was a key,
// '.', '[', ']', '\' escaped with '\', and "\e" for the empty key.
// Plain keys (the common case) are rendered straight from the raw
// bytes.
func (w *tapeWalker) appendKeySegment(keyNode jsontape.Node, prevWasKey bool) {
	if prevWasKey {
		w.path = append(w.path, '.')
	}
	key, escaped := keyNode.RawString()
	if escaped {
		w.key = keyNode.AppendString(w.key[:0])
		key = w.key
	}
	if len(key) == 0 {
		w.path = append(w.path, '\\', 'e')
		return
	}
	for _, c := range key {
		switch c {
		case '.', '[', '\\', ']':
			w.path = append(w.path, '\\')
		}
		w.path = append(w.path, c)
	}
}

// LookupTape follows a parsed path through a tape document, mirroring
// Lookup over jsonvalue trees.
func LookupTape(d *jsontape.Doc, p Path) (jsontape.Node, bool) {
	cur := d.Root()
	for _, s := range p.Segs {
		if s.IsIndex {
			el, ok := cur.Elem(s.Index)
			if !ok {
				return jsontape.Node{}, false
			}
			cur = el
			continue
		}
		v, ok := cur.Member(s.Key)
		if !ok {
			return jsontape.Node{}, false
		}
		cur = v
	}
	return cur, true
}
