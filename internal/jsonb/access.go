package jsonb

import (
	"encoding/binary"
	"math"
	"strconv"

	"repro/internal/float16"
	"repro/internal/jsonvalue"
)

// Doc is a cursor into an encoded JSONB buffer. It never copies
// payload bytes: Get and Index return sub-cursors into the same
// buffer, so point accesses touch only the bytes on the lookup path
// (§5.4).
type Doc struct {
	buf []byte
}

// NewDoc wraps an encoded buffer. The buffer is not validated here;
// use Valid for untrusted input.
func NewDoc(buf []byte) Doc { return Doc{buf: buf} }

// Bytes returns the encoded bytes of this value, trimmed to its exact
// size (the cursor may view a suffix of a parent buffer).
func (d Doc) Bytes() []byte {
	n, _ := d.size()
	return d.buf[:n]
}

// Kind reports the logical type of the value under the cursor.
func (d Doc) Kind() Kind {
	if len(d.buf) == 0 {
		return KindNull
	}
	switch d.buf[0] >> 4 {
	case tagNull:
		return KindNull
	case tagFalse, tagTrue:
		return KindBool
	case tagInt:
		return KindInt
	case tagFloat:
		return KindFloat
	case tagString, tagNumStr:
		return KindString
	case tagObject:
		return KindObject
	case tagArray:
		return KindArray
	}
	return KindNull
}

// IsNull reports whether the value is JSON null.
func (d Doc) IsNull() bool { return len(d.buf) == 0 || d.buf[0]>>4 == tagNull }

// IsNumericString reports whether the value is a string stored in the
// typed numeric-string representation (§5.2).
func (d Doc) IsNumericString() bool { return len(d.buf) > 0 && d.buf[0]>>4 == tagNumStr }

// Bool returns the boolean payload.
func (d Doc) Bool() (bool, bool) {
	if len(d.buf) == 0 {
		return false, false
	}
	switch d.buf[0] >> 4 {
	case tagTrue:
		return true, true
	case tagFalse:
		return false, true
	}
	return false, false
}

// Int64 returns the integer payload of an Int value.
func (d Doc) Int64() (int64, bool) {
	if len(d.buf) == 0 || d.buf[0]>>4 != tagInt {
		return 0, false
	}
	return d.readIntNibble(), true
}

// readIntNibble decodes the int-style low nibble at d.buf[0].
func (d Doc) readIntNibble() int64 {
	nib := d.buf[0] & 0xF
	if nib&inlineFlag != 0 {
		return int64(nib & 0x7)
	}
	w := int(nib) + 1
	return getIntLE(d.buf[1:], w)
}

func intNibbleSize(b []byte) int {
	nib := b[0] & 0xF
	if nib&inlineFlag != 0 {
		return 1
	}
	return 1 + int(nib) + 1
}

// Float64 returns the float payload of a Float value.
func (d Doc) Float64() (float64, bool) {
	if len(d.buf) == 0 || d.buf[0]>>4 != tagFloat {
		return 0, false
	}
	switch d.buf[0] & 0xF {
	case 2:
		return float16.ToFloat64(uint16(d.buf[1]) | uint16(d.buf[2])<<8), true
	case 4:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(d.buf[1:]))), true
	default:
		return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[1:])), true
	}
}

// String returns the string payload, reconstructing the exact text of
// numeric strings.
func (d Doc) String() (string, bool) {
	if b, ok := d.StringBytes(); ok {
		return string(b), true
	}
	if m, scale, ok := d.NumericString(); ok {
		return formatNumeric(m, scale), true
	}
	return "", false
}

// StringBytes returns the payload of a plain string without copying: a
// view into the document that callers must not retain or mutate. It
// reports false for a numeric string, whose text String rebuilds.
func (d Doc) StringBytes() ([]byte, bool) {
	if len(d.buf) == 0 || d.buf[0]>>4 != tagString {
		return nil, false
	}
	start := intNibbleSize(d.buf)
	return d.buf[start : start+int(d.readIntNibble())], true
}

// NumericString returns the typed (mantissa, scale) payload of a
// numeric string, letting casts skip text parsing entirely.
func (d Doc) NumericString() (mantissa int64, scale uint8, ok bool) {
	if len(d.buf) == 0 || d.buf[0]>>4 != tagNumStr {
		return 0, 0, false
	}
	return d.readIntNibble(), d.buf[intNibbleSize(d.buf)], true
}

// container decodes the count/offset region of an object or array.
type container struct {
	n        int // element count
	ow       int // offset width in bytes
	offStart int // byte offset of the offset array
	slotBase int // byte offset of the slot region
}

func (d Doc) container() (container, bool) {
	if len(d.buf) == 0 {
		return container{}, false
	}
	tag := d.buf[0] >> 4
	if tag != tagObject && tag != tagArray {
		return container{}, false
	}
	cw := widthForCode[(d.buf[0]>>2)&0x3]
	ow := widthForCode[d.buf[0]&0x3]
	if len(d.buf) < 1+cw {
		return container{}, false
	}
	n64 := getUintLE(d.buf[1:], cw)
	// Every element needs at least one offset byte, so a count larger
	// than the buffer is unconditionally corrupt (and would overflow
	// the arithmetic below).
	if n64 > uint64(len(d.buf)) {
		return container{}, false
	}
	n := int(n64)
	offStart := 1 + cw
	slotBase := offStart + n*ow
	if slotBase > len(d.buf) {
		return container{}, false
	}
	return container{n: n, ow: ow, offStart: offStart, slotBase: slotBase}, true
}

// offset returns the i-th offset, or -1 when it lies outside the
// buffer (corrupt input).
func (d Doc) offset(c container, i int) int {
	pos := c.offStart + i*c.ow
	if pos+c.ow > len(d.buf) {
		return -1
	}
	v := getUintLE(d.buf[pos:], c.ow)
	if v > uint64(len(d.buf)) {
		return -1
	}
	return int(v)
}

// Len returns the element count of an object or array (0 otherwise).
func (d Doc) Len() int {
	c, ok := d.container()
	if !ok {
		return 0
	}
	return c.n
}

// keyBytesAt returns the encoded key of object slot i, aliasing the
// buffer, and the buffer offset just past it, where payload i+1
// begins. Offsets point at the end of payload i, which is exactly
// where the length-prefixed key begins. Corrupt offsets or lengths
// yield nil and -1 rather than a panic.
func (d Doc) keyBytesAt(c container, i int) (key []byte, end int) {
	off := d.offset(c, i)
	pos := c.slotBase + off
	if off < 0 || pos >= len(d.buf) {
		return nil, -1
	}
	klen, n := uint64(d.buf[pos]), 1
	if klen >= 0x80 { // keys of 128+ bytes: the general varint
		klen, n = binary.Uvarint(d.buf[pos:])
		if n <= 0 {
			return nil, -1
		}
	}
	pos += n
	if klen > uint64(len(d.buf)-pos) {
		return nil, -1
	}
	end = pos + int(klen)
	return d.buf[pos:end:end], end
}

// payloadAt returns a cursor to the payload of slot i. For objects,
// payload i starts where key i-1 ends; for arrays it starts at the end
// of payload i-1.
func (d Doc) payloadAt(c container, i int, isObject bool) Doc {
	var start int
	if i == 0 {
		start = c.slotBase
	} else if isObject {
		pos := c.slotBase + d.offset(c, i-1)
		klen, n := binary.Uvarint(d.buf[pos:])
		start = pos + n + int(klen)
	} else {
		start = c.slotBase + d.offset(c, i-1)
	}
	return Doc{buf: d.buf[start:]}
}

// Get looks up key in an object using binary search over the sorted
// keys — the O(log n) access the format is designed for. Keys are
// compared against the encoded bytes in place, so a lookup (hit or
// miss) allocates nothing. The encoder keeps keys unique (the last of
// equal input keys wins), so at most one slot matches. The second
// result is false when d is not an object or the key is absent.
func (d Doc) Get(key string) (Doc, bool) {
	c, ok := d.container()
	if !ok || d.buf[0]>>4 != tagObject {
		return Doc{}, false
	}
	lo, hi := 0, c.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		// string(k) in a comparison does not allocate.
		k, _ := d.keyBytesAt(c, mid)
		switch {
		case string(k) < key:
			lo = mid + 1
		case string(k) > key:
			hi = mid
		default:
			return d.payloadAt(c, mid, true), true
		}
	}
	return Doc{}, false
}

// GetPath follows a chain of object keys, failing fast on the first
// missing segment.
func (d Doc) GetPath(keys ...string) (Doc, bool) {
	cur := d
	for _, k := range keys {
		var ok bool
		cur, ok = cur.Get(k)
		if !ok {
			return Doc{}, false
		}
	}
	return cur, true
}

// Index returns the i-th array element in O(1).
func (d Doc) Index(i int) (Doc, bool) {
	c, ok := d.container()
	if !ok || d.buf[0]>>4 != tagArray || i < 0 || i >= c.n {
		return Doc{}, false
	}
	return d.payloadAt(c, i, false), true
}

// Each iterates members of an object or elements of an array in
// storage order (sorted keys for objects). The iteration is a pure
// forward walk over contiguous memory. key is "" for arrays.
func (d Doc) Each(fn func(key string, v Doc) bool) {
	c, ok := d.container()
	if !ok {
		return
	}
	isObject := d.buf[0]>>4 == tagObject
	pos := c.slotBase
	for i := 0; i < c.n; i++ {
		payload := Doc{buf: d.buf[pos:]}
		psize, _ := payload.size()
		var key string
		pos += psize
		if isObject {
			klen, n := binary.Uvarint(d.buf[pos:])
			key = string(d.buf[pos+n : pos+n+int(klen)])
			pos += n + int(klen)
		}
		if !fn(key, payload) {
			return
		}
	}
}

// size computes the full encoded size of the value under the cursor.
// Containers resolve it from their last offset in O(1); scalars from
// the header.
func (d Doc) size() (int, error) {
	if len(d.buf) == 0 {
		return 0, errf("empty buffer")
	}
	switch d.buf[0] >> 4 {
	case tagNull, tagFalse, tagTrue:
		return 1, nil
	case tagInt, tagString, tagNumStr:
		base := intNibbleSize(d.buf)
		if base > len(d.buf) {
			return 0, errf("truncated header")
		}
		switch d.buf[0] >> 4 {
		case tagInt:
			return base, nil
		case tagNumStr:
			return base + 1, nil // scale byte
		default:
			slen := Doc{buf: d.buf}.readIntNibble()
			if slen < 0 || slen > int64(len(d.buf)) {
				return 0, errf("bad string length")
			}
			return base + int(slen), nil
		}
	case tagFloat:
		w := int(d.buf[0] & 0xF)
		if w != 2 && w != 4 && w != 8 {
			return 0, errf("bad float width %d", w)
		}
		return 1 + w, nil
	case tagObject, tagArray:
		c, ok := d.container()
		if !ok {
			return 0, errf("bad container header")
		}
		if c.n == 0 {
			return c.slotBase, nil
		}
		last := d.offset(c, c.n-1)
		if last < 0 {
			return 0, errf("bad container offset")
		}
		end := c.slotBase + last
		if d.buf[0]>>4 == tagObject {
			if end >= len(d.buf) {
				return 0, errf("key offset out of range")
			}
			klen, n := binary.Uvarint(d.buf[end:])
			if n <= 0 || klen > uint64(len(d.buf)) {
				return 0, errf("bad key length")
			}
			end += n + int(klen)
		}
		return end, nil
	}
	return 0, errf("invalid type tag 0x%x", d.buf[0]>>4)
}

// Decode materializes the full value tree. Object members come out in
// sorted-key order (the format does not preserve input key order,
// matching the paper's PostgreSQL-style trade-off).
func (d Doc) Decode() jsonvalue.Value {
	switch d.Kind() {
	case KindNull:
		return jsonvalue.Null()
	case KindBool:
		b, _ := d.Bool()
		return jsonvalue.Bool(b)
	case KindInt:
		i, _ := d.Int64()
		return jsonvalue.Int(i)
	case KindFloat:
		f, _ := d.Float64()
		return jsonvalue.Float(f)
	case KindString:
		s, _ := d.String()
		return jsonvalue.String(s)
	case KindArray:
		elems := make([]jsonvalue.Value, 0, d.Len())
		d.Each(func(_ string, v Doc) bool {
			elems = append(elems, v.Decode())
			return true
		})
		return jsonvalue.Array(elems...)
	case KindObject:
		members := make([]jsonvalue.Member, 0, d.Len())
		d.Each(func(k string, v Doc) bool {
			members = append(members, jsonvalue.Member{Key: k, Value: v.Decode()})
			return true
		})
		return jsonvalue.Object(members...)
	}
	return jsonvalue.Null()
}

// AsText renders the value the way the ->> operator does: strings
// unquoted, scalars in their JSON text form, containers as JSON text.
func (d Doc) AsText() string {
	switch d.Kind() {
	case KindNull:
		return ""
	case KindBool:
		b, _ := d.Bool()
		if b {
			return "true"
		}
		return "false"
	case KindInt:
		i, _ := d.Int64()
		return strconv.FormatInt(i, 10)
	case KindFloat:
		f, _ := d.Float64()
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		s, _ := d.String()
		return s
	default:
		return jsonvalueText(d)
	}
}

// Valid walks the whole buffer and reports whether it is a
// well-formed JSONB value occupying exactly len(buf) bytes.
func Valid(buf []byte) bool {
	d := Doc{buf: buf}
	n, err := d.validate(0)
	return err == nil && n == len(buf)
}

func (d Doc) validate(depth int) (int, error) {
	if depth > 512 {
		return 0, errf("nesting too deep")
	}
	if len(d.buf) == 0 {
		return 0, errf("empty buffer")
	}
	sz, err := d.size()
	if err != nil {
		return 0, err
	}
	if sz > len(d.buf) {
		return 0, errf("value overruns buffer")
	}
	tag := d.buf[0] >> 4
	if tag == tagObject || tag == tagArray {
		c, _ := d.container()
		pos := c.slotBase
		prevKey := ""
		for i := 0; i < c.n; i++ {
			if pos >= len(d.buf) {
				return 0, errf("slot %d out of range", i)
			}
			child := Doc{buf: d.buf[pos:]}
			csz, err := child.validate(depth + 1)
			if err != nil {
				return 0, err
			}
			pos += csz
			if tag == tagObject {
				klen, n := binary.Uvarint(d.buf[pos:])
				if n <= 0 || pos+n+int(klen) > len(d.buf) {
					return 0, errf("bad key in slot %d", i)
				}
				key := string(d.buf[pos+n : pos+n+int(klen)])
				if i > 0 && key < prevKey {
					return 0, errf("object keys not sorted")
				}
				prevKey = key
				pos += n + int(klen)
			}
			if want := c.slotBase + d.offset(c, i); tag == tagArray && pos != want {
				return 0, errf("array offset %d mismatch", i)
			}
		}
		if pos != sz {
			return 0, errf("container size mismatch")
		}
	}
	return sz, nil
}

// Keys returns the sorted keys of an object (nil otherwise).
func (d Doc) Keys() []string {
	c, ok := d.container()
	if !ok || d.buf[0]>>4 != tagObject {
		return nil
	}
	keys := make([]string, c.n)
	for i := range keys {
		k, _ := d.keyBytesAt(c, i)
		keys[i] = string(k)
	}
	return keys
}

// HasKey reports key presence without extracting the payload.
func (d Doc) HasKey(key string) bool {
	_, ok := d.Get(key)
	return ok
}
