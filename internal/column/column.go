// Package column implements the typed columnar chunks that JSON tiles
// materialize extracted key paths into. A column stores one value type
// (BigInt, Double, Text, Bool, or Timestamp) plus a null bitmap; null
// marks tuples whose document lacks the path or carries an
// outlier-typed value — those are answered from the binary JSON
// fallback (paper §3.4).
//
// Strings live in a single byte arena with offsets, so a column's
// memory is a handful of flat slices: cheap to scan, cheap to measure
// (Table 6), and trivially compressible (LZ4).
package column

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/keypath"
	"repro/internal/lz4"
)

// Column is an append-only typed column with a null bitmap.
type Column struct {
	typ   keypath.ValueType
	n     int
	nulls []uint64 // bit i set = row i is null

	ints     []int64   // BigInt and Timestamp (microseconds since epoch)
	floats   []float64 // Double
	bools    []uint64  // Bool bitmap
	strOff   []uint32  // Text: end offsets into strBytes (start = off[i-1])
	strBytes []byte

	// Dictionary layout (Text only, see dict.go): when codeWidth != 0
	// the per-row strings are replaced by codes into a sorted distinct-
	// value arena and strOff/strBytes are nil.
	dictOff   []uint32 // dict entry end offsets into dictBytes
	dictBytes []byte
	codeWidth uint8 // 0 = arena layout; 1, 2, or 4 byte codes
	codes8    []uint8
	codes16   []uint16
	codes32   []uint32

	// shared marks a column decoded from a block payload: the segment
	// reader hands one such column to every scan of a pool residency,
	// so the in-place setters refuse it.
	shared bool
}

// New returns an empty column of the given storage type.
func New(t keypath.ValueType) *Column { return &Column{typ: t} }

// Type returns the storage type.
func (c *Column) Type() keypath.ValueType { return c.typ }

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

func (c *Column) setNull(i int) {
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << (uint(i) & 63)
}

// IsNull reports whether row i is null.
func (c *Column) IsNull(i int) bool {
	w := i >> 6
	if w >= len(c.nulls) {
		return false
	}
	return c.nulls[w]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any row is null.
func (c *Column) HasNulls() bool {
	for _, w := range c.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// NullCount returns the number of null rows.
func (c *Column) NullCount() int {
	total := 0
	for _, w := range c.nulls {
		total += popcount(w)
	}
	return total
}

func popcount(w uint64) int {
	n := 0
	for w != 0 {
		w &= w - 1
		n++
	}
	return n
}

// AppendNull adds a null row.
func (c *Column) AppendNull() {
	c.setNull(c.n)
	switch c.typ {
	case keypath.TypeBigInt, keypath.TypeTimestamp:
		c.ints = append(c.ints, 0)
	case keypath.TypeDouble:
		c.floats = append(c.floats, 0)
	case keypath.TypeString:
		switch c.codeWidth {
		case 0:
			var last uint32
			if len(c.strOff) > 0 {
				last = c.strOff[len(c.strOff)-1]
			}
			c.strOff = append(c.strOff, last)
		case 1:
			c.codes8 = append(c.codes8, 0)
		case 2:
			c.codes16 = append(c.codes16, 0)
		default:
			c.codes32 = append(c.codes32, 0)
		}
	case keypath.TypeBool:
		// bitmap grows lazily
	}
	c.n++
}

// AppendInt adds a BigInt or Timestamp row.
func (c *Column) AppendInt(v int64) {
	c.ints = append(c.ints, v)
	c.n++
}

// AppendFloat adds a Double row.
func (c *Column) AppendFloat(v float64) {
	c.floats = append(c.floats, v)
	c.n++
}

// AppendString adds a Text row.
func (c *Column) AppendString(v string) { c.AppendBytes([]byte(v)) }

// AppendBytes adds a Text row holding v.
func (c *Column) AppendBytes(v []byte) {
	c.strBytes = append(c.strBytes, v...)
	c.strOff = append(c.strOff, uint32(len(c.strBytes)))
	c.n++
}

// AppendBool adds a Bool row.
func (c *Column) AppendBool(v bool) {
	if v {
		w := c.n >> 6
		for len(c.bools) <= w {
			c.bools = append(c.bools, 0)
		}
		c.bools[w] |= 1 << (uint(c.n) & 63)
	}
	c.n++
}

// Int returns the integer value of row i (BigInt or Timestamp).
func (c *Column) Int(i int) int64 { return c.ints[i] }

// Float returns the double value of row i.
func (c *Column) Float(i int) float64 { return c.floats[i] }

// Bool returns the boolean value of row i.
func (c *Column) Bool(i int) bool {
	w := i >> 6
	if w >= len(c.bools) {
		return false
	}
	return c.bools[w]&(1<<(uint(i)&63)) != 0
}

// String returns the text value of row i.
func (c *Column) String(i int) string {
	if c.codeWidth != 0 {
		return string(c.dictEntryOfRow(i))
	}
	var start uint32
	if i > 0 {
		start = c.strOff[i-1]
	}
	return string(c.strBytes[start:c.strOff[i]])
}

// StringBytes returns the text of row i without copying. Callers must
// not retain or mutate the slice.
func (c *Column) StringBytes(i int) []byte {
	if c.codeWidth != 0 {
		return c.dictEntryOfRow(i)
	}
	var start uint32
	if i > 0 {
		start = c.strOff[i-1]
	}
	return c.strBytes[start:c.strOff[i]]
}

// IntSlice exposes the raw int64 backing (BigInt and Timestamp
// columns) for zero-copy vectorized scans. Read-only.
func (c *Column) IntSlice() []int64 { return c.ints }

// FloatSlice exposes the raw float64 backing. Read-only.
func (c *Column) FloatSlice() []float64 { return c.floats }

// BoolBits exposes the boolean bitmap. Read-only.
func (c *Column) BoolBits() []uint64 { return c.bools }

// NullBits exposes the null bitmap (nil when no row is null).
// Read-only.
func (c *Column) NullBits() []uint64 { return c.nulls }

// StringData exposes the text arena: end offsets and the shared byte
// buffer (row i spans offsets[i-1]..offsets[i]). Read-only. Nil for
// dictionary columns — use DictData and Codes instead.
func (c *Column) StringData() (offsets []uint32, bytes []byte) {
	return c.strOff, c.strBytes
}

// SetInt updates row i in place (update path, §4.7). Like SetFloat
// and SetNull it panics on a column Deserialize produced: those are
// shared between concurrent scans and never updated.
func (c *Column) SetInt(i int, v int64) {
	c.mustBeOwned()
	c.ints[i] = v
	c.clearNull(i)
}

// SetFloat updates row i in place.
func (c *Column) SetFloat(i int, v float64) {
	c.mustBeOwned()
	c.floats[i] = v
	c.clearNull(i)
}

// SetNull marks row i null in place.
func (c *Column) SetNull(i int) {
	c.mustBeOwned()
	c.setNull(i)
}

func (c *Column) mustBeOwned() {
	if c.shared {
		panic("column: in-place update of a shared, deserialized column")
	}
}

func (c *Column) clearNull(i int) {
	w := i >> 6
	if w < len(c.nulls) {
		c.nulls[w] &^= 1 << (uint(i) & 63)
	}
}

// SizeBytes returns the in-memory footprint of the column data.
func (c *Column) SizeBytes() int {
	return len(c.nulls)*8 + len(c.ints)*8 + len(c.floats)*8 +
		len(c.bools)*8 + len(c.strOff)*4 + len(c.strBytes) +
		len(c.dictOff)*4 + len(c.dictBytes) +
		len(c.codes8) + len(c.codes16)*2 + len(c.codes32)*4
}

// ErrCorrupt reports an undecodable serialized column.
var ErrCorrupt = errors.New("column: corrupt serialized column")

// Serialize flattens the column into one contiguous self-describing
// buffer: the payload of a segment column block, and the form measured
// (and LZ4-compressed) for the Table 6 storage accounting.
//
// Layout (little endian): type byte, u32 row count, u32 null-bitmap
// word count + words, then the typed data — u64 per row for
// BigInt/Timestamp/Double, a length-prefixed u64 bitmap for Bool, and
// u32 end offsets plus a length-prefixed byte arena for Text. The
// lazily-grown bitmaps keep their in-memory (possibly short) lengths,
// so Deserialize restores an identical column.
func (c *Column) Serialize() []byte {
	out := make([]byte, 0, c.SizeBytes()+32)
	if c.codeWidth != 0 {
		// Dictionary layout: the codes part followed by the dictionary
		// part, each independently parseable (segments store them as
		// two blocks; see SerializeCodes/SerializeDict).
		return c.serializeDict(c.serializeCodes(out))
	}
	out = append(out, byte(c.typ))
	var tmp [8]byte
	pu32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		out = append(out, tmp[:4]...)
	}
	pwords := func(ws []uint64) {
		pu32(uint32(len(ws)))
		for _, w := range ws {
			binary.LittleEndian.PutUint64(tmp[:], w)
			out = append(out, tmp[:]...)
		}
	}
	pu32(uint32(c.n))
	pwords(c.nulls)
	switch c.typ {
	case keypath.TypeBigInt, keypath.TypeTimestamp:
		for _, v := range c.ints {
			binary.LittleEndian.PutUint64(tmp[:], uint64(v))
			out = append(out, tmp[:]...)
		}
	case keypath.TypeDouble:
		for _, v := range c.floats {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
			out = append(out, tmp[:]...)
		}
	case keypath.TypeBool:
		pwords(c.bools)
	case keypath.TypeString:
		for _, o := range c.strOff {
			pu32(o)
		}
		pu32(uint32(len(c.strBytes)))
		out = append(out, c.strBytes...)
	}
	return out
}

// Deserialize reconstructs a column serialized by Serialize. Every
// length field is validated against the remaining buffer and against
// the row count, so corrupt block payloads yield ErrCorrupt instead of
// panicking or over-allocating.
func Deserialize(b []byte) (*Column, error) {
	if len(b) < 5 {
		return nil, ErrCorrupt
	}
	if b[0]&dictMarker != 0 {
		c, rest, err := deserializeCodes(b)
		if err != nil {
			return nil, err
		}
		rest, err = c.deserializeDict(rest)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrCorrupt
		}
		return c, nil
	}
	typ := keypath.ValueType(b[0])
	b = b[1:]
	// The row count is untrusted: every per-row allocation below is
	// gated on the remaining buffer actually holding that many values,
	// so a corrupt count cannot over-allocate.
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	words := func() ([]uint64, bool) {
		if len(b) < 4 {
			return nil, false
		}
		w := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if w < 0 || w > (n+63)/64 || len(b) < w*8 {
			return nil, false
		}
		ws := make([]uint64, w)
		for i := range ws {
			ws[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		b = b[w*8:]
		return ws, true
	}
	c := &Column{typ: typ, n: n, shared: true}
	var ok bool
	if c.nulls, ok = words(); !ok {
		return nil, ErrCorrupt
	}
	switch typ {
	case keypath.TypeBigInt, keypath.TypeTimestamp, keypath.TypeDouble:
		if len(b) < n*8 {
			return nil, ErrCorrupt
		}
		if typ == keypath.TypeDouble {
			c.floats = make([]float64, n)
			for i := range c.floats {
				c.floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			}
		} else {
			c.ints = make([]int64, n)
			for i := range c.ints {
				c.ints[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
			}
		}
		b = b[n*8:]
	case keypath.TypeBool:
		if c.bools, ok = words(); !ok {
			return nil, ErrCorrupt
		}
	case keypath.TypeString:
		if len(b) < n*4+4 {
			return nil, ErrCorrupt
		}
		c.strOff = make([]uint32, n)
		prev := uint32(0)
		for i := range c.strOff {
			o := binary.LittleEndian.Uint32(b[i*4:])
			if o < prev {
				return nil, ErrCorrupt // offsets must be monotonic
			}
			c.strOff[i] = o
			prev = o
		}
		b = b[n*4:]
		bl := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if bl < 0 || len(b) < bl || (n > 0 && int(c.strOff[n-1]) != bl) {
			return nil, ErrCorrupt
		}
		c.strBytes = append([]byte(nil), b[:bl]...)
		b = b[bl:]
	default:
		return nil, ErrCorrupt
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return c, nil
}

// CompressedSize returns the LZ4-compressed size of the serialized
// column.
func (c *Column) CompressedSize() int {
	return len(lz4.Compress(nil, c.Serialize()))
}
