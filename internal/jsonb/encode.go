package jsonb

import (
	"encoding/binary"
	"math"

	"repro/internal/float16"
	"repro/internal/jsonvalue"
)

// Encoder transforms jsonvalue documents into JSONB buffers using the
// two-pass algorithm of §5.3: the first pass walks the tree depth
// first and records the encoded size of every node, the second pass
// writes into an exactly-sized buffer with no resizing. An Encoder is
// reusable (its scratch state is reset per document) but not safe for
// concurrent use; loading pipelines use one Encoder per worker.
type Encoder struct {
	sizes   []int                // full encoded size per node, pre-order
	spans   []int                // number of pre-order records per subtree
	sorted  [][]jsonvalue.Member // sorted members per node (objects only)
	numeric []numericInfo        // numeric-string detection per node (strings only)
	cursor  int                  // node cursor for the write pass
	buf     []byte
	// Tape-driven encoding scratch (EncodeTape): decoded string
	// content and sorted members per pre-order record, the members of
	// every object carved from one arena, the member order of each
	// object shape seen (memberOrder) and a copy buffer to apply it.
	tstr   [][]byte
	tmem   [][]tapeMember
	marena []tapeMember
	shapes map[uint64]*memberShape
	mcopy  []tapeMember
}

type numericInfo struct {
	mantissa int64
	scale    uint8
	ok       bool
}

// Encode returns the JSONB encoding of v. The returned buffer is
// freshly allocated and owned by the caller.
func (e *Encoder) Encode(v jsonvalue.Value) []byte {
	e.sizes = e.sizes[:0]
	e.spans = e.spans[:0]
	e.sorted = e.sorted[:0]
	e.numeric = e.numeric[:0]
	total := e.measure(v)
	if cap(e.buf) < total {
		e.buf = make([]byte, total)
	}
	e.buf = e.buf[:0]
	e.cursor = 0
	e.write(v)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// Encode is a convenience wrapper for one-off encoding.
func Encode(v jsonvalue.Value) []byte {
	var e Encoder
	return e.Encode(v)
}

// measure is the first pass: it computes and memoizes the full
// encoded size (header included) of v and all descendants, appending
// per-node records in pre-order so the write pass can consume them in
// the same order.
func (e *Encoder) measure(v jsonvalue.Value) int {
	idx := len(e.sizes)
	e.sizes = append(e.sizes, 0)
	e.spans = append(e.spans, 1)
	e.sorted = append(e.sorted, nil)
	e.numeric = append(e.numeric, numericInfo{})

	var size int
	switch v.Kind() {
	case jsonvalue.KindNull, jsonvalue.KindBool:
		size = 1
	case jsonvalue.KindInt:
		i := v.IntVal()
		if i >= 0 && i < 8 {
			size = 1
		} else {
			size = 1 + intWidth(i)
		}
	case jsonvalue.KindFloat:
		size = 1 + floatWidth(v.FloatVal())
	case jsonvalue.KindString:
		s := v.StringVal()
		if m, sc, ok := detectNumeric(s); ok {
			e.numeric[idx] = numericInfo{mantissa: m, scale: sc, ok: true}
			if m >= 0 && m < 8 {
				size = 1 + 1 // header with inline mantissa + scale byte
			} else {
				size = 1 + intWidth(m) + 1
			}
		} else {
			n := len(s)
			if n < 8 {
				size = 1 + n
			} else {
				size = 1 + intWidth(int64(n)) + n
			}
		}
	case jsonvalue.KindArray:
		slots := 0
		for _, el := range v.Elems() {
			slots += e.measure(el)
		}
		n := uint64(v.Len())
		cw := widthForCode[codeForWidth(n)]
		ow := widthForCode[codeForWidth(uint64(slots))]
		size = 1 + cw + v.Len()*ow + slots
	case jsonvalue.KindObject:
		ms := lastOfEqualKeys(v.SortedMembers())
		e.sorted[idx] = ms
		slots := 0
		for _, m := range ms {
			slots += e.measure(m.Value)
			slots += uvarintLen(uint64(len(m.Key))) + len(m.Key)
		}
		n := uint64(len(ms))
		cw := widthForCode[codeForWidth(n)]
		ow := widthForCode[codeForWidth(uint64(slots))]
		size = 1 + cw + len(ms)*ow + slots
	}
	e.sizes[idx] = size
	e.spans[idx] = len(e.sizes) - idx
	return size
}

// lastOfEqualKeys drops all but the last of every run of equal keys in
// a stably key-sorted member list: a repeated key means its last
// occurrence (jsonvalue.Lookup's rule), and Doc.Get's binary search
// needs unique keys to find it. Distinct keys return ms itself.
func lastOfEqualKeys(ms []jsonvalue.Member) []jsonvalue.Member {
	for i := 1; i < len(ms); i++ {
		if ms[i].Key != ms[i-1].Key {
			continue
		}
		out := make([]jsonvalue.Member, 0, len(ms)-1)
		for j, m := range ms {
			if j+1 == len(ms) || ms[j+1].Key != m.Key {
				out = append(out, m)
			}
		}
		return out
	}
	return ms
}

// write is the second pass. It mirrors measure's traversal exactly;
// e.cursor advances through the memoized per-node records.
func (e *Encoder) write(v jsonvalue.Value) {
	idx := e.cursor
	e.cursor++
	switch v.Kind() {
	case jsonvalue.KindNull:
		e.buf = append(e.buf, tagNull<<4)
	case jsonvalue.KindBool:
		if v.BoolVal() {
			e.buf = append(e.buf, tagTrue<<4)
		} else {
			e.buf = append(e.buf, tagFalse<<4)
		}
	case jsonvalue.KindInt:
		e.writeInt(tagInt, v.IntVal())
	case jsonvalue.KindFloat:
		e.writeFloat(v.FloatVal())
	case jsonvalue.KindString:
		if ni := e.numeric[idx]; ni.ok {
			e.writeInt(tagNumStr, ni.mantissa)
			e.buf = append(e.buf, ni.scale)
		} else {
			s := v.StringVal()
			e.writeInt(tagString, int64(len(s)))
			e.buf = append(e.buf, s...)
		}
	case jsonvalue.KindArray:
		n := v.Len()
		slots := e.childSlotsSize(idx, n, nil)
		e.writeContainerHeader(tagArray, n, slots)
		// Offsets: cumulative payload ends.
		ow := widthForCode[codeForWidth(uint64(slots))]
		off := 0
		childIdx := e.cursor
		for i := 0; i < n; i++ {
			off += e.sizes[childIdx]
			childIdx += e.nodeSpan(childIdx)
			e.appendUint(uint64(off), ow)
		}
		for _, el := range v.Elems() {
			e.write(el)
		}
	case jsonvalue.KindObject:
		ms := e.sorted[idx]
		n := len(ms)
		slots := e.childSlotsSize(idx, n, ms)
		e.writeContainerHeader(tagObject, n, slots)
		ow := widthForCode[codeForWidth(uint64(slots))]
		off := 0
		childIdx := e.cursor
		for i := 0; i < n; i++ {
			off += e.sizes[childIdx] // offset = end of payload i
			childIdx += e.nodeSpan(childIdx)
			e.appendUint(uint64(off), ow)
			off += uvarintLen(uint64(len(ms[i].Key))) + len(ms[i].Key)
		}
		for _, m := range ms {
			e.write(m.Value)
			e.buf = binary.AppendUvarint(e.buf, uint64(len(m.Key)))
			e.buf = append(e.buf, m.Key...)
		}
	}
}

// nodeSpan returns how many pre-order node records the subtree rooted
// at record idx occupies, letting the write pass skip over a child's
// descendants when walking sibling records.
func (e *Encoder) nodeSpan(idx int) int { return e.spans[idx] }

// childSlotsSize sums the slot bytes of the n children whose records
// start right after idx (the current cursor position).
func (e *Encoder) childSlotsSize(idx, n int, ms []jsonvalue.Member) int {
	slots := 0
	childIdx := idx + 1
	for i := 0; i < n; i++ {
		slots += e.sizes[childIdx]
		childIdx += e.spans[childIdx]
	}
	if ms != nil {
		for _, m := range ms {
			slots += uvarintLen(uint64(len(m.Key))) + len(m.Key)
		}
	}
	return slots
}

func (e *Encoder) writeContainerHeader(tag byte, n, slots int) {
	e.buf = appendContainerHeader(e.buf, tag, n, slots)
}

// appendContainerHeader appends the header byte and element count of a
// container of n elements whose slots take slots bytes: the count and
// offset widths are the narrowest that hold n and slots. Every
// container is written through it, so a container's header follows
// from its count and slot bytes alone.
func appendContainerHeader(dst []byte, tag byte, n, slots int) []byte {
	cc := codeForWidth(uint64(n))
	oc := codeForWidth(uint64(slots))
	dst = append(dst, tag<<4|byte(cc<<2)|byte(oc))
	return appendUint(dst, uint64(n), widthForCode[cc])
}

func (e *Encoder) appendUint(v uint64, w int) { e.buf = appendUint(e.buf, v, w) }

func appendUint(dst []byte, v uint64, w int) []byte {
	var tmp [8]byte
	putUintLE(tmp[:], v, w)
	return append(dst, tmp[:w]...)
}

// writeInt emits a header with the int-style low nibble followed by
// the minimal-width integer (shared by Int, String lengths, and
// NumericString mantissas).
func (e *Encoder) writeInt(tag byte, v int64) {
	if v >= 0 && v < 8 {
		e.buf = append(e.buf, tag<<4|inlineFlag|byte(v))
		return
	}
	w := intWidth(v)
	e.buf = append(e.buf, tag<<4|byte(w-1)) // width-1 fits 3 bits (0..7)
	var tmp [8]byte
	putIntLE(tmp[:], v, w)
	e.buf = append(e.buf, tmp[:w]...)
}

func (e *Encoder) writeFloat(f float64) {
	if h, ok := float16.FromFloat64(f); ok {
		e.buf = append(e.buf, tagFloat<<4|2, byte(h), byte(h>>8))
		return
	}
	if s, ok := float16.SingleFromFloat64(f); ok {
		e.buf = append(e.buf, tagFloat<<4|4)
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], s)
		e.buf = append(e.buf, tmp[:]...)
		return
	}
	e.buf = append(e.buf, tagFloat<<4|8)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	e.buf = append(e.buf, tmp[:]...)
}

func floatWidth(f float64) int {
	if _, ok := float16.FromFloat64(f); ok {
		return 2
	}
	if _, ok := float16.SingleFromFloat64(f); ok {
		return 4
	}
	return 8
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
