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

	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/vec"
)

// dictMarker flags the dictionary layout in the serialized type byte;
// an arena column's type byte never has it set.
const dictMarker = 0x80

// codeWidth is the byte width of a dictionary column's codes, 0 for
// the arena layout. A dictionary column's code slice is never nil, even
// with no rows, so its width survives a round trip.
func (c *Column) codeWidth() uint8 {
	switch {
	case !c.Dict:
		return 0
	case c.Codes8 != nil:
		return 1
	case c.Codes16 != nil:
		return 2
	}
	return 4
}

// DictEncode converts an arena-layout text column to the dictionary
// layout in place, keeping at most maxNDV distinct values. It returns
// false — leaving the column untouched — when the column is not an
// arena text column or the exact distinct count exceeds maxNDV (the
// lossless fallback: HLL estimates that invited the attempt can
// undershoot).
func (c *Column) DictEncode(maxNDV int) bool {
	if c.typ != keypath.TypeString || c.Dict || maxNDV <= 0 {
		return false
	}
	distinct := make(map[string]struct{}, 16)
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			continue
		}
		b := c.StrAt(i)
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
	var arena []byte
	ends := make([]uint32, len(entries))
	for k, s := range entries {
		codeOf[s] = uint32(k)
		arena = append(arena, s...)
		ends[k] = uint32(len(arena))
	}
	codes := vec.Vector{Type: expr.TText, Dict: true, Nulls: c.Nulls, StrOff: ends, StrBytes: arena}
	switch codeWidthFor(len(entries)) {
	case 1:
		codes.Codes8 = make([]uint8, c.n)
	case 2:
		codes.Codes16 = make([]uint16, c.n)
	default:
		codes.Codes32 = make([]uint32, c.n)
	}
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			continue // null rows keep code 0
		}
		k := codeOf[string(c.StrAt(i))]
		switch {
		case codes.Codes8 != nil:
			codes.Codes8[i] = uint8(k)
		case codes.Codes16 != nil:
			codes.Codes16[i] = uint16(k)
		default:
			codes.Codes32[i] = k
		}
	}
	c.Vector = codes
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
	return c.serializeCodes(make([]byte, 0, 16+len(c.Nulls)*8+c.n*int(c.codeWidth())))
}

func (c *Column) serializeCodes(out []byte) []byte {
	out = append(out, dictMarker|byte(c.typ))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(c.n))
	out = append(out, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(c.Nulls)))
	out = append(out, tmp[:4]...)
	for _, w := range c.Nulls {
		binary.LittleEndian.PutUint64(tmp[:], w)
		out = append(out, tmp[:]...)
	}
	width := c.codeWidth()
	out = append(out, width)
	switch width {
	case 1:
		out = append(out, c.Codes8...)
	case 2:
		for _, v := range c.Codes16 {
			binary.LittleEndian.PutUint16(tmp[:2], v)
			out = append(out, tmp[:2]...)
		}
	default:
		for _, v := range c.Codes32 {
			binary.LittleEndian.PutUint32(tmp[:4], v)
			out = append(out, tmp[:4]...)
		}
	}
	return out
}

// SerializeDict flattens the dictionary half: entry count, sorted
// entry end offsets, and the length-prefixed entry arena.
func (c *Column) SerializeDict() []byte {
	return c.serializeDict(make([]byte, 0, 8+len(c.StrOff)*4+len(c.StrBytes)))
}

func (c *Column) serializeDict(out []byte) []byte {
	var tmp [4]byte
	pu32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	pu32(uint32(len(c.StrOff)))
	for _, o := range c.StrOff {
		pu32(o)
	}
	pu32(uint32(len(c.StrBytes)))
	out = append(out, c.StrBytes...)
	return out
}

// deserializeCodes parses a SerializeCodes payload and returns the
// partially constructed column (dictionary still empty) plus the
// unconsumed remainder.
func deserializeCodes(b []byte, rows int) (*Column, []byte, error) {
	if len(b) < 5 || b[0] != dictMarker|byte(keypath.TypeString) {
		return nil, nil, ErrCorrupt
	}
	b = b[1:]
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n != rows || len(b) < 4 {
		return nil, nil, ErrCorrupt
	}
	w := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if w < 0 || w > (n+63)/64 || len(b) < w*8 {
		return nil, nil, ErrCorrupt
	}
	c := New(keypath.TypeString)
	c.n, c.shared, c.Dict = n, true, true
	if w > 0 {
		c.Nulls = make([]uint64, w)
		for i := range c.Nulls {
			c.Nulls[i] = binary.LittleEndian.Uint64(b[i*8:])
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
	switch width {
	case 1:
		c.Codes8 = make([]uint8, n) // never nil: the code width is the slice set
		copy(c.Codes8, b)
		b = b[n:]
	case 2:
		c.Codes16 = make([]uint16, n)
		for i := range c.Codes16 {
			c.Codes16[i] = binary.LittleEndian.Uint16(b[i*2:])
		}
		b = b[n*2:]
	default:
		c.Codes32 = make([]uint32, n)
		for i := range c.Codes32 {
			c.Codes32[i] = binary.LittleEndian.Uint32(b[i*4:])
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
	c.StrOff = make([]uint32, dl)
	prev := uint32(0)
	for i := range c.StrOff {
		o := binary.LittleEndian.Uint32(b[i*4:])
		if o < prev {
			return nil, ErrCorrupt
		}
		c.StrOff[i] = o
		prev = o
	}
	b = b[dl*4:]
	bl := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if bl < 0 || len(b) < bl || (dl > 0 && int(c.StrOff[dl-1]) != bl) || (dl == 0 && bl != 0) {
		return nil, ErrCorrupt
	}
	c.StrBytes = append([]byte(nil), b[:bl]...)
	b = b[bl:]
	for k := 1; k < dl; k++ {
		if bytes.Compare(c.DictEntry(k-1), c.DictEntry(k)) >= 0 {
			return nil, ErrCorrupt // must be sorted and duplicate-free
		}
	}
	limit := uint32(dl)
	for i := 0; i < c.n; i++ {
		code := c.CodeAt(i)
		if code >= limit && !(code == 0 && c.IsNull(i)) {
			return nil, ErrCorrupt
		}
	}
	return b, nil
}

// DeserializeDict reconstructs a dictionary column of rows rows from
// its two block payloads: a SerializeCodes buffer and a SerializeDict
// buffer. Any other row count is refused before anything is allocated.
func DeserializeDict(codes, dict []byte, rows int) (*Column, error) {
	c, rest, err := deserializeCodes(codes, rows)
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
