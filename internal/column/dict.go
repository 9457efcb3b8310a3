// Dictionary-encoded text columns: low-cardinality string columns
// store each distinct value once in a sorted arena and replace the
// per-row strings with minimal-width integer codes (u8/u16/u32).
// Because the dictionary is sorted, equality and range predicates
// collapse to a binary-searched code range, LIKE/IN evaluate once per
// distinct value, and GROUP BY can aggregate into an array indexed by
// code — the per-row hot loops touch only integers (paper §3, §5;
// extracted paths exist precisely so analytics run at columnar speed).
package column

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/keypath"
)

// dictMarker flags the dictionary layout in the serialized type byte.
// Arena-layout serialization is byte-identical to the pre-dictionary
// format, so v1 segment blocks decode unchanged.
const dictMarker = 0x80

// IsDict reports whether the column uses the dictionary layout.
func (c *Column) IsDict() bool { return c.codeWidth != 0 }

// DictLen returns the number of distinct dictionary entries.
func (c *Column) DictLen() int { return len(c.dictOff) }

// DictEntryBytes returns dictionary entry k without copying. Entries
// are sorted ascending; callers must not retain or mutate the slice.
func (c *Column) DictEntryBytes(k int) []byte {
	var start uint32
	if k > 0 {
		start = c.dictOff[k-1]
	}
	return c.dictBytes[start:c.dictOff[k]]
}

// Code returns the dictionary code of row i. Null rows carry code 0.
func (c *Column) Code(i int) uint32 {
	switch c.codeWidth {
	case 1:
		return uint32(c.codes8[i])
	case 2:
		return uint32(c.codes16[i])
	default:
		return c.codes32[i]
	}
}

// DictData exposes the sorted dictionary arena: end offsets and the
// shared byte buffer (entry k spans offsets[k-1]..offsets[k]).
// Read-only.
func (c *Column) DictData() (offsets []uint32, bytes []byte) {
	return c.dictOff, c.dictBytes
}

// Codes exposes the raw code slices for zero-copy vectorized scans:
// exactly one of c8/c16/c32 is non-nil, matching width. Read-only.
func (c *Column) Codes() (width uint8, c8 []uint8, c16 []uint16, c32 []uint32) {
	return c.codeWidth, c.codes8, c.codes16, c.codes32
}

func (c *Column) dictEntryOfRow(i int) []byte {
	k := c.Code(i)
	if k == 0 && c.IsNull(i) {
		return nil // null rows park on code 0; don't alias entry 0's bytes
	}
	return c.DictEntryBytes(int(k))
}

// DictEncode converts an arena-layout text column to the dictionary
// layout in place, keeping at most maxNDV distinct values. It returns
// false — leaving the column untouched — when the column is not an
// arena text column or the exact distinct count exceeds maxNDV (the
// lossless fallback: HLL estimates that invited the attempt can
// undershoot).
func (c *Column) DictEncode(maxNDV int) bool {
	if c.typ != keypath.TypeString || c.codeWidth != 0 || maxNDV <= 0 {
		return false
	}
	distinct := make(map[string]struct{}, 16)
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			continue
		}
		b := c.StringBytes(i)
		if _, ok := distinct[string(b)]; !ok {
			if len(distinct) >= maxNDV {
				return false
			}
			distinct[string(b)] = struct{}{}
		}
	}
	entries := make([]string, 0, len(distinct))
	for s := range distinct {
		entries = append(entries, s)
	}
	sort.Strings(entries)
	codeOf := make(map[string]uint32, len(entries))
	var dictBytes []byte
	dictOff := make([]uint32, len(entries))
	for k, s := range entries {
		codeOf[s] = uint32(k)
		dictBytes = append(dictBytes, s...)
		dictOff[k] = uint32(len(dictBytes))
	}
	width := codeWidthFor(len(entries))
	var c8 []uint8
	var c16 []uint16
	var c32 []uint32
	switch width {
	case 1:
		c8 = make([]uint8, c.n)
	case 2:
		c16 = make([]uint16, c.n)
	default:
		c32 = make([]uint32, c.n)
	}
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			continue // null rows keep code 0
		}
		k := codeOf[string(c.StringBytes(i))]
		switch width {
		case 1:
			c8[i] = uint8(k)
		case 2:
			c16[i] = uint16(k)
		default:
			c32[i] = k
		}
	}
	c.dictOff, c.dictBytes = dictOff, dictBytes
	c.codeWidth, c.codes8, c.codes16, c.codes32 = width, c8, c16, c32
	c.strOff, c.strBytes = nil, nil
	return true
}

// codeWidthFor picks the minimal code width for ndv entries.
func codeWidthFor(ndv int) uint8 {
	switch {
	case ndv <= 1<<8:
		return 1
	case ndv <= 1<<16:
		return 2
	default:
		return 4
	}
}

// SerializeCodes flattens the code half of a dictionary column: the
// header (marker type byte, row count, null bitmap) plus the code
// width and the packed codes. It is the payload of a segment column
// block; the dictionary itself travels in its own block
// (SerializeDict) so a tile's codes and dictionary are independently
// checksummed and cached.
func (c *Column) SerializeCodes() []byte {
	return c.serializeCodes(make([]byte, 0, 16+len(c.nulls)*8+c.n*int(c.codeWidth)))
}

func (c *Column) serializeCodes(out []byte) []byte {
	out = append(out, dictMarker|byte(c.typ))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(c.n))
	out = append(out, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(c.nulls)))
	out = append(out, tmp[:4]...)
	for _, w := range c.nulls {
		binary.LittleEndian.PutUint64(tmp[:], w)
		out = append(out, tmp[:]...)
	}
	out = append(out, c.codeWidth)
	switch c.codeWidth {
	case 1:
		out = append(out, c.codes8...)
	case 2:
		for _, v := range c.codes16 {
			binary.LittleEndian.PutUint16(tmp[:2], v)
			out = append(out, tmp[:2]...)
		}
	default:
		for _, v := range c.codes32 {
			binary.LittleEndian.PutUint32(tmp[:4], v)
			out = append(out, tmp[:4]...)
		}
	}
	return out
}

// SerializeDict flattens the dictionary half: entry count, sorted
// entry end offsets, and the length-prefixed entry arena.
func (c *Column) SerializeDict() []byte {
	return c.serializeDict(make([]byte, 0, 8+len(c.dictOff)*4+len(c.dictBytes)))
}

func (c *Column) serializeDict(out []byte) []byte {
	var tmp [4]byte
	pu32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	pu32(uint32(len(c.dictOff)))
	for _, o := range c.dictOff {
		pu32(o)
	}
	pu32(uint32(len(c.dictBytes)))
	out = append(out, c.dictBytes...)
	return out
}

// deserializeCodes parses a SerializeCodes payload and returns the
// partially constructed column (dictionary still empty) plus the
// unconsumed remainder.
func deserializeCodes(b []byte) (*Column, []byte, error) {
	if len(b) < 5 || b[0] != dictMarker|byte(keypath.TypeString) {
		return nil, nil, ErrCorrupt
	}
	b = b[1:]
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < 4 {
		return nil, nil, ErrCorrupt
	}
	w := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if w < 0 || w > (n+63)/64 || len(b) < w*8 {
		return nil, nil, ErrCorrupt
	}
	c := &Column{typ: keypath.TypeString, n: n, shared: true}
	if w > 0 {
		c.nulls = make([]uint64, w)
		for i := range c.nulls {
			c.nulls[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		b = b[w*8:]
	}
	if len(b) < 1 {
		return nil, nil, ErrCorrupt
	}
	width := b[0]
	b = b[1:]
	if width != 1 && width != 2 && width != 4 {
		return nil, nil, ErrCorrupt
	}
	if len(b) < n*int(width) {
		return nil, nil, ErrCorrupt
	}
	c.codeWidth = width
	switch width {
	case 1:
		c.codes8 = append([]uint8(nil), b[:n]...)
		b = b[n:]
	case 2:
		c.codes16 = make([]uint16, n)
		for i := range c.codes16 {
			c.codes16[i] = binary.LittleEndian.Uint16(b[i*2:])
		}
		b = b[n*2:]
	default:
		c.codes32 = make([]uint32, n)
		for i := range c.codes32 {
			c.codes32[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
		b = b[n*4:]
	}
	return c, b, nil
}

// deserializeDict parses a SerializeDict payload into c and returns
// the unconsumed remainder. It validates offset monotonicity, strict
// entry ordering (the code-range kernels rely on a sorted, duplicate-
// free dictionary), and that every row's code addresses a real entry.
func (c *Column) deserializeDict(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	dl := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if dl < 0 || dl > c.n || len(b) < dl*4+4 {
		return nil, ErrCorrupt
	}
	c.dictOff = make([]uint32, dl)
	prev := uint32(0)
	for i := range c.dictOff {
		o := binary.LittleEndian.Uint32(b[i*4:])
		if o < prev {
			return nil, ErrCorrupt
		}
		c.dictOff[i] = o
		prev = o
	}
	b = b[dl*4:]
	bl := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if bl < 0 || len(b) < bl || (dl > 0 && int(c.dictOff[dl-1]) != bl) || (dl == 0 && bl != 0) {
		return nil, ErrCorrupt
	}
	c.dictBytes = append([]byte(nil), b[:bl]...)
	b = b[bl:]
	for k := 1; k < dl; k++ {
		if bytes.Compare(c.DictEntryBytes(k-1), c.DictEntryBytes(k)) >= 0 {
			return nil, ErrCorrupt // must be sorted and duplicate-free
		}
	}
	limit := uint32(dl)
	for i := 0; i < c.n; i++ {
		code := c.Code(i)
		if code >= limit && !(code == 0 && c.IsNull(i)) {
			return nil, ErrCorrupt
		}
	}
	return b, nil
}

// DeserializeDict reconstructs a dictionary column from its two block
// payloads: a SerializeCodes buffer and a SerializeDict buffer.
func DeserializeDict(codes, dict []byte) (*Column, error) {
	c, rest, err := deserializeCodes(codes)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrCorrupt
	}
	rest, err = c.deserializeDict(dict)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrCorrupt
	}
	return c, nil
}
