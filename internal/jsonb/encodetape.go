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
func (e *Encoder) EncodeTape(d *jsontape.Doc) []byte {
	e.sizes = e.sizes[:0]
	e.spans = e.spans[:0]
	e.numeric = e.numeric[:0]
	e.tstr = e.tstr[:0]
	e.tmem = e.tmem[:0]
	e.marena = e.marena[:0]
	total := e.measureTape(d, 0)
	if cap(e.buf) < total {
		e.buf = make([]byte, total)
	}
	e.buf = e.buf[:0]
	e.cursor = 0
	e.writeTape(d, 0)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
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
		// A stable sort keeps equal keys in input order, so the last of
		// a run is the last occurrence: the one a repeated key means.
		// Equal keys end up adjacent, and adjacent elements of a sorted
		// order have been compared with each other, so the order check
		// or the sort itself sees every repetition: distinct keys pay
		// nothing for the check.
		presorted, repeated := true, false
		for k := 1; k < len(ms) && presorted; k++ {
			c := bytes.Compare(ms[k-1].key, ms[k].key)
			presorted, repeated = c <= 0, repeated || c == 0
		}
		if !presorted {
			slices.SortStableFunc(ms, func(a, b tapeMember) int {
				c := bytes.Compare(a.key, b.key)
				repeated = repeated || c == 0
				return c
			})
		}
		if repeated {
			kept := ms[:0]
			for k, m := range ms {
				if k+1 == len(ms) || !bytes.Equal(ms[k+1].key, m.key) {
					kept = append(kept, m)
				}
			}
			ms, count = kept, len(kept)
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
		e.writeInt(tagInt, n.IntVal())
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
