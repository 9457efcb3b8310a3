// Package jsontape implements an On-Demand JSON parser (Keiser &
// Lemire, "On-Demand JSON: A Better Way to Parse Documents"): a
// single validating pass over the input produces one flat []uint64
// tape of token kinds and byte offsets, and everything else — integer
// and float conversion, string unescaping, UTF-8 sanitizing, tree
// materialization — happens lazily, only when a consumer actually
// keeps the value. Tile extraction walks the tape in document order
// and skips subtrees it does not extract, so ingest never builds a
// jsonvalue tree on the hot path.
//
// The parser accepts and rejects exactly the same documents as
// jsontext.Parse (the correctness oracle; FuzzTapeVsTree enforces
// this), and lazily decoded values are byte-for-byte identical to the
// tree parser's. Inputs that exceed the tape's packed-word limits
// (offsets ≥ 4 GiB, spans or container counts ≥ 2^28) return a
// *LimitError, which ingest reports like a syntax error: the tape is
// the only parser on the write side.
//
// Tape layout: one word per node, packed as
//
//	kind(4 bits, 60-63) | aux(28 bits, 32-59) | pos(32 bits, 0-31)
//
//	kind        aux            pos
//	KNull       0              byte offset of literal
//	KTrue       0              byte offset of literal
//	KFalse      0              byte offset of literal
//	KInt        literal len    byte offset of literal (lazy ParseInt)
//	KFloat      literal len    byte offset of literal (lazy ParseFloat)
//	KFloatPre   literal len    byte offset; next word = Float64bits
//	KString     content len    byte offset of content (plain)
//	KStringEsc  content len    byte offset of content (needs decoding)
//	KKey        content len    byte offset of content (plain)
//	KKeyEsc     content len    byte offset of content (needs decoding)
//	KObj        member count   tape index one past the subtree
//	KArr        element count  tape index one past the subtree
//
// KFloatPre is the only two-word node: floats whose decimal exponent
// could overflow float64 are converted eagerly at parse time (the
// conversion doubles as the range check) and the bits stored inline.
// Everything else is one word, so skipping a subtree is one load:
// containers store their end index, scalars advance by their width.
package jsontape

import (
	"math"
)

// Kind identifies a tape node.
type Kind uint8

const (
	KInvalid Kind = iota
	KNull
	KTrue
	KFalse
	KInt
	KFloat
	KFloatPre
	KString
	KStringEsc
	KKey
	KKeyEsc
	KObj
	KArr
)

func (k Kind) String() string {
	switch k {
	case KNull:
		return "null"
	case KTrue, KFalse:
		return "bool"
	case KInt:
		return "int"
	case KFloat, KFloatPre:
		return "float"
	case KString, KStringEsc:
		return "string"
	case KKey, KKeyEsc:
		return "key"
	case KObj:
		return "object"
	case KArr:
		return "array"
	}
	return "invalid"
}

const (
	kindShift = 60
	auxShift  = 32
	auxMask   = 1<<28 - 1
	posMask   = 1<<32 - 1
)

func pack(k Kind, aux, pos int) uint64 {
	return uint64(k)<<kindShift | uint64(aux)<<auxShift | uint64(pos)
}

// Doc is one parsed document: the raw input plus its structural tape.
// A Doc is reusable — Parse resets it in place, retaining the tape
// buffer — and aliases the input bytes, which must stay immutable for
// the Doc's lifetime.
type Doc struct {
	Data []byte
	Tape []uint64
}

// Root returns the document's root node.
func (d *Doc) Root() Node { return Node{d, 0} }

// At returns the node at tape index i.
func (d *Doc) At(i int) Node { return Node{d, i} }

// KindAt returns the kind of the node at tape index i.
func (d *Doc) KindAt(i int) Kind { return Kind(d.Tape[i] >> kindShift) }

// Skip returns the tape index of the node following the subtree
// rooted at i: containers jump past their contents in O(1), scalars
// advance by their word width.
func (d *Doc) Skip(i int) int {
	w := d.Tape[i]
	switch Kind(w >> kindShift) {
	case KObj, KArr:
		return int(w & posMask)
	case KFloatPre:
		return i + 2
	default:
		return i + 1
	}
}

// Node is a cursor over one tape entry. Iterate containers with Skip:
//
//	obj := d.At(i)                    // KObj with obj.Count() members
//	j := i + 1
//	for k := 0; k < obj.Count(); k++ {
//		key, val := d.At(j), d.At(j+1) // keys are always one word
//		j = d.Skip(j + 1)
//	}
type Node struct {
	d *Doc
	i int
}

// Index returns the node's tape index.
func (n Node) Index() int { return n.i }

// Doc returns the document the node belongs to.
func (n Node) Doc() *Doc { return n.d }

// Kind returns the node's kind.
func (n Node) Kind() Kind { return Kind(n.d.Tape[n.i] >> kindShift) }

func (n Node) aux() int { return int(n.d.Tape[n.i] >> auxShift & auxMask) }
func (n Node) pos() int { return int(n.d.Tape[n.i] & posMask) }

// Count returns the member count of an object node or the element
// count of an array node.
func (n Node) Count() int { return n.aux() }

// End returns the tape index one past the subtree rooted at this
// node.
func (n Node) End() int { return n.d.Skip(n.i) }

// IsNull reports whether the node is a JSON null.
func (n Node) IsNull() bool { return n.Kind() == KNull }

// BoolVal returns the value of a boolean node.
func (n Node) BoolVal() bool { return n.Kind() == KTrue }

// Literal returns the raw bytes of a number literal.
func (n Node) Literal() []byte {
	return n.d.Data[n.pos() : n.pos()+n.aux()]
}

// IntVal decodes an integer node. The literal was range-checked at
// parse time, so the manual accumulation cannot overflow.
func (n Node) IntVal() int64 {
	lit := n.Literal()
	j := 0
	neg := lit[0] == '-'
	if neg {
		j = 1
	}
	var acc uint64
	for ; j < len(lit); j++ {
		acc = acc*10 + uint64(lit[j]-'0')
	}
	if neg {
		return -int64(acc)
	}
	return int64(acc)
}

// FloatVal decodes a float node. KFloatPre carries the eagerly
// converted bits inline; KFloat literals were proven in-range at
// parse time, so the lazy conversion cannot fail.
func (n Node) FloatVal() float64 {
	if n.Kind() == KFloatPre {
		return math.Float64frombits(n.d.Tape[n.i+1])
	}
	return parseFloatBytes(n.Literal())
}

// RawString returns the undecoded content bytes of a string or key
// node (the span between the quotes) and whether they need decoding:
// a span with an escape or with invalid UTF-8. The raw bytes of a span
// that needs none are its content.
func (n Node) RawString() (raw []byte, escaped bool) {
	k := n.Kind()
	return n.d.Data[n.pos() : n.pos()+n.aux()], k == KStringEsc || k == KKeyEsc
}
