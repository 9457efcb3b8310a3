package jsonb

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/jsontape"
)

// Tape-driven JSONB encoding: the same two-pass algorithm as Encode,
// but walking a jsontape.Doc instead of a jsonvalue tree, so the
// ingest pipeline encodes documents without materializing them. The
// output is byte-identical to Encode(node.Materialize()) — object
// members are visited in the same stable key-sorted order with only
// the last of equal keys kept, strings
// are decoded with the same escape/sanitize rules (once, during the
// measure pass), and numeric-string detection runs on the decoded
// bytes.

// tapeMember pairs a decoded object key (possibly aliasing the
// document's raw bytes) with the tape index of its value.
type tapeMember struct {
	key []byte
	val int
}

// EncodeTape returns the JSONB encoding of the document. The returned
// buffer is freshly allocated and owned by the caller.
func (e *Encoder) EncodeTape(d *jsontape.Doc) []byte { return e.AppendTape(nil, d) }

// AppendTape appends the JSONB encoding of the document to dst, as
// append does: the write pass writes straight into dst's spare room
// when it holds the size the measure pass found.
func (e *Encoder) AppendTape(dst []byte, d *jsontape.Doc) []byte {
	e.sizes = e.sizes[:0]
	e.spans = e.spans[:0]
	e.numeric = e.numeric[:0]
	e.tstr = e.tstr[:0]
	e.tmem = e.tmem[:0]
	e.marena = e.marena[:0]
	total := e.measureTape(d, 0)
	e.buf = slices.Grow(dst, total)
	e.cursor = 0
	e.writeTape(d, 0)
	dst, e.buf = e.buf, nil
	return dst
}

// measureTape mirrors measure: pre-order size records in the order
// the write pass will consume them, with objects traversed in sorted
// key order.
func (e *Encoder) measureTape(d *jsontape.Doc, ti int) int {
	idx := len(e.sizes)
	e.sizes = append(e.sizes, 0)
	e.spans = append(e.spans, 1)
	e.numeric = append(e.numeric, numericInfo{})
	e.tstr = append(e.tstr, nil)
	e.tmem = append(e.tmem, nil)

	n := d.At(ti)
	var size int
	switch n.Kind() {
	case jsontape.KNull, jsontape.KTrue, jsontape.KFalse:
		size = 1
	case jsontape.KInt:
		i := n.IntVal()
		e.numeric[idx].mantissa = i // the write pass takes it from here
		if i >= 0 && i < 8 {
			size = 1
		} else {
			size = 1 + intWidth(i)
		}
	case jsontape.KFloat, jsontape.KFloatPre:
		size = 1 + floatWidth(n.FloatVal())
	case jsontape.KString, jsontape.KStringEsc:
		s := n.ContentBytes()
		e.tstr[idx] = s
		if m, sc, ok := detectNumeric(s); ok {
			e.numeric[idx] = numericInfo{mantissa: m, scale: sc, ok: true}
			if m >= 0 && m < 8 {
				size = 1 + 1 // header with inline mantissa + scale byte
			} else {
				size = 1 + intWidth(m) + 1
			}
		} else {
			ln := len(s)
			if ln < 8 {
				size = 1 + ln
			} else {
				size = 1 + intWidth(int64(ln)) + ln
			}
		}
	case jsontape.KArr:
		count := n.Count()
		slots := 0
		j := ti + 1
		for k := 0; k < count; k++ {
			slots += e.measureTape(d, j)
			j = d.Skip(j)
		}
		cw := widthForCode[codeForWidth(uint64(count))]
		ow := widthForCode[codeForWidth(uint64(slots))]
		size = 1 + cw + count*ow + slots
	case jsontape.KObj:
		count := n.Count()
		// The members are carved from the encoder's arena. Measuring the
		// children below appends past them; if that regrows the arena,
		// ms keeps the old backing array, which nothing writes again.
		lo := len(e.marena)
		j := ti + 1
		for k := 0; k < count; k++ {
			e.marena = append(e.marena, tapeMember{key: d.At(j).ContentBytes(), val: j + 1})
			j = d.Skip(j + 1)
		}
		ms := e.marena[lo:len(e.marena):len(e.marena)]
		// Members go in key order, the last of equal keys kept. Keys in
		// strictly ascending order are that already; any other object
		// takes the order of its shape.
		ascending := true
		for k := 1; k < len(ms) && ascending; k++ {
			ascending = bytes.Compare(ms[k-1].key, ms[k].key) < 0
		}
		if !ascending {
			e.mcopy = append(e.mcopy[:0], ms...)
			order := e.memberOrder(ms)
			for k, p := range order {
				ms[k] = e.mcopy[p]
			}
			ms, count = ms[:len(order)], len(order)
		}
		e.tmem[idx] = ms
		slots := 0
		for _, m := range ms {
			slots += e.measureTape(d, m.val)
			slots += uvarintLen(uint64(len(m.key))) + len(m.key)
		}
		cw := widthForCode[codeForWidth(uint64(count))]
		ow := widthForCode[codeForWidth(uint64(slots))]
		size = 1 + cw + count*ow + slots
	}
	e.sizes[idx] = size
	e.spans[idx] = len(e.sizes) - idx
	return size
}

// maxShapes bounds the object shapes one encoder remembers.
const maxShapes = 64

// memberShape is the member order of one object shape: its keys in
// input order, and the input positions of the members to encode.
type memberShape struct {
	keys  [][]byte
	order []int32
}

// shapeHash hashes an object's key sequence. It is a variable so a test
// can force collisions.
var shapeHash = hashKeys

// hashKeys is FNV-1a over each key's length and its bytes, eight at a
// time where it can.
func hashKeys(ms []tapeMember) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, m := range ms {
		k := m.key
		h = (h ^ uint64(len(k))) * prime
		for ; len(k) >= 8; k = k[8:] {
			h = (h ^ binary.LittleEndian.Uint64(k)) * prime
		}
		for _, c := range k {
			h = (h ^ uint64(c)) * prime
		}
	}
	return h
}

// memberOrder returns the input positions of the members to encode: in
// key order, with the last of equal keys kept. A stable sort keeps
// equal keys in input order, so the last of a run is the last
// occurrence — the one a repeated key means. The documents of a
// collection repeat a few shapes, so the order is remembered per key
// sequence, for up to maxShapes sequences: an object whose keys hash
// like a remembered shape's and equal them one by one sorts nothing.
func (e *Encoder) memberOrder(ms []tapeMember) []int32 {
	h := shapeHash(ms)
	s, seen := e.shapes[h]
	if seen && s.matches(ms) {
		return s.order
	}
	order := make([]int32, len(ms))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return bytes.Compare(ms[a].key, ms[b].key) })
	kept := order[:0]
	for k, p := range order {
		if k+1 == len(order) || !bytes.Equal(ms[order[k+1]].key, ms[p].key) {
			kept = append(kept, p)
		}
	}
	if !seen && len(e.shapes) < maxShapes {
		// The keys may alias the document, so the shape keeps a copy.
		n := 0
		for _, m := range ms {
			n += len(m.key)
		}
		buf := make([]byte, 0, n)
		keys := make([][]byte, len(ms))
		for k, m := range ms {
			buf = append(buf, m.key...)
			keys[k] = buf[len(buf)-len(m.key):]
		}
		if e.shapes == nil {
			e.shapes = map[uint64]*memberShape{}
		}
		e.shapes[h] = &memberShape{keys: keys, order: kept}
	}
	return kept
}

// matches reports whether the object's keys are the shape's.
func (s *memberShape) matches(ms []tapeMember) bool {
	if len(ms) != len(s.keys) {
		return false
	}
	for k, m := range ms {
		if !bytes.Equal(m.key, s.keys[k]) {
			return false
		}
	}
	return true
}

// writeTape mirrors write, consuming the memoized records in the same
// order measureTape appended them.
func (e *Encoder) writeTape(d *jsontape.Doc, ti int) {
	idx := e.cursor
	e.cursor++
	n := d.At(ti)
	switch n.Kind() {
	case jsontape.KNull:
		e.buf = append(e.buf, tagNull<<4)
	case jsontape.KTrue:
		e.buf = append(e.buf, tagTrue<<4)
	case jsontape.KFalse:
		e.buf = append(e.buf, tagFalse<<4)
	case jsontape.KInt:
		e.writeInt(tagInt, e.numeric[idx].mantissa)
	case jsontape.KFloat, jsontape.KFloatPre:
		e.writeFloat(n.FloatVal())
	case jsontape.KString, jsontape.KStringEsc:
		if ni := e.numeric[idx]; ni.ok {
			e.writeInt(tagNumStr, ni.mantissa)
			e.buf = append(e.buf, ni.scale)
		} else {
			s := e.tstr[idx]
			e.writeInt(tagString, int64(len(s)))
			e.buf = append(e.buf, s...)
		}
	case jsontape.KArr:
		count := n.Count()
		slots := e.childSlotsSize(idx, count, nil)
		e.writeContainerHeader(tagArray, count, slots)
		ow := widthForCode[codeForWidth(uint64(slots))]
		off := 0
		childIdx := e.cursor
		for i := 0; i < count; i++ {
			off += e.sizes[childIdx]
			childIdx += e.nodeSpan(childIdx)
			e.appendUint(uint64(off), ow)
		}
		j := ti + 1
		for k := 0; k < count; k++ {
			e.writeTape(d, j)
			j = d.Skip(j)
		}
	case jsontape.KObj:
		ms := e.tmem[idx]
		count := len(ms)
		slots := e.childSlotsSize(idx, count, nil)
		for _, m := range ms {
			slots += uvarintLen(uint64(len(m.key))) + len(m.key)
		}
		e.writeContainerHeader(tagObject, count, slots)
		ow := widthForCode[codeForWidth(uint64(slots))]
		off := 0
		childIdx := e.cursor
		for i := 0; i < count; i++ {
			off += e.sizes[childIdx] // offset = end of payload i
			childIdx += e.nodeSpan(childIdx)
			e.appendUint(uint64(off), ow)
			off += uvarintLen(uint64(len(ms[i].key))) + len(ms[i].key)
		}
		for _, m := range ms {
			e.writeTape(d, m.val)
			e.buf = binary.AppendUvarint(e.buf, uint64(len(m.key)))
			e.buf = append(e.buf, m.key...)
		}
	}
}
