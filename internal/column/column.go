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
	"math/bits"

	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/lz4"
	"repro/internal/vec"
)

// Column is an append-only typed column with a null bitmap. Its cells
// are a vec.Vector typed as the column's SQL type (SQLType): a text
// column is an arena of its rows, or, once DictEncode has run, a
// sorted dictionary arena and one code slice (Dict). A scan that wants
// that type reads the column's own vector. Appends and DictEncode grow
// the Nulls and Bools bitmaps lazily, to the last word holding a set
// bit, and Serialize writes them as they are.
type Column struct {
	vec.Vector

	typ keypath.ValueType
	n   int
	// shared marks a column decoded from a block payload: the segment
	// reader hands one such column to every scan of a pool residency,
	// so the in-place setters refuse it.
	shared bool
}

// New returns an empty column of the given storage type.
func New(t keypath.ValueType) *Column {
	return &Column{Vector: vec.Vector{Type: SQLType(t)}, typ: t}
}

// SQLType is the SQL type a column of storage type t holds its values
// as.
func SQLType(t keypath.ValueType) expr.SQLType {
	switch t {
	case keypath.TypeBigInt:
		return expr.TBigInt
	case keypath.TypeDouble:
		return expr.TFloat
	case keypath.TypeBool:
		return expr.TBool
	case keypath.TypeTimestamp:
		return expr.TTimestamp
	}
	return expr.TText
}

// Type returns the storage type.
func (c *Column) Type() keypath.ValueType { return c.typ }

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

// setBit sets bit i of a lazily grown bitmap.
func setBit(bits []uint64, i int) []uint64 {
	w := i >> 6
	for len(bits) <= w {
		bits = append(bits, 0)
	}
	bits[w] |= 1 << (uint(i) & 63)
	return bits
}

// NullCount returns the number of null rows.
func (c *Column) NullCount() int {
	total := 0
	for _, w := range c.Nulls {
		total += bits.OnesCount64(w)
	}
	return total
}

// AppendNull adds a null row.
func (c *Column) AppendNull() {
	c.Nulls = setBit(c.Nulls, c.n)
	switch {
	case c.typ == keypath.TypeBigInt, c.typ == keypath.TypeTimestamp:
		c.Ints = append(c.Ints, 0)
	case c.typ == keypath.TypeDouble:
		c.Floats = append(c.Floats, 0)
	case c.Codes8 != nil:
		c.Codes8 = append(c.Codes8, 0)
	case c.Codes16 != nil:
		c.Codes16 = append(c.Codes16, 0)
	case c.Codes32 != nil:
		c.Codes32 = append(c.Codes32, 0)
	case c.typ == keypath.TypeString:
		c.StrOff = append(c.StrOff, uint32(len(c.StrBytes)))
	}
	c.n++
}

// AppendInt adds a BigInt or Timestamp row.
func (c *Column) AppendInt(v int64) {
	c.Ints = append(c.Ints, v)
	c.n++
}

// AppendFloat adds a Double row.
func (c *Column) AppendFloat(v float64) {
	c.Floats = append(c.Floats, v)
	c.n++
}

// AppendString adds a Text row.
func (c *Column) AppendString(v string) { c.AppendBytes([]byte(v)) }

// AppendBytes adds a Text row holding v.
func (c *Column) AppendBytes(v []byte) {
	c.StrBytes = append(c.StrBytes, v...)
	c.StrOff = append(c.StrOff, uint32(len(c.StrBytes)))
	c.n++
}

// AppendBool adds a Bool row.
func (c *Column) AppendBool(v bool) {
	if v {
		c.Bools = setBit(c.Bools, c.n)
	}
	c.n++
}

// SetInt updates row i in place (update path, §4.7). Like SetFloat
// and SetNull it panics on a column Deserialize produced: those are
// shared between concurrent scans and never updated.
func (c *Column) SetInt(i int, v int64) {
	c.mustBeOwned()
	c.Ints[i] = v
	c.clearNull(i)
}

// SetFloat updates row i in place.
func (c *Column) SetFloat(i int, v float64) {
	c.mustBeOwned()
	c.Floats[i] = v
	c.clearNull(i)
}

// SetNull marks row i null in place.
func (c *Column) SetNull(i int) {
	c.mustBeOwned()
	c.Nulls = setBit(c.Nulls, i)
}

func (c *Column) mustBeOwned() {
	if c.shared {
		panic("column: in-place update of a shared, deserialized column")
	}
}

func (c *Column) clearNull(i int) {
	if w := i >> 6; w < len(c.Nulls) {
		c.Nulls[w] &^= 1 << (uint(i) & 63)
	}
}

// SizeBytes returns the in-memory footprint of the column data.
func (c *Column) SizeBytes() int {
	return len(c.Nulls)*8 + len(c.Ints)*8 + len(c.Floats)*8 +
		len(c.Bools)*8 + len(c.StrOff)*4 + len(c.StrBytes) +
		len(c.Codes8) + len(c.Codes16)*2 + len(c.Codes32)*4
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
	if c.Dict {
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
	pwords(c.Nulls)
	switch c.typ {
	case keypath.TypeBigInt, keypath.TypeTimestamp:
		for _, v := range c.Ints {
			binary.LittleEndian.PutUint64(tmp[:], uint64(v))
			out = append(out, tmp[:]...)
		}
	case keypath.TypeDouble:
		for _, v := range c.Floats {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
			out = append(out, tmp[:]...)
		}
	case keypath.TypeBool:
		pwords(c.Bools)
	case keypath.TypeString:
		for _, o := range c.StrOff {
			pu32(o)
		}
		pu32(uint32(len(c.StrBytes)))
		out = append(out, c.StrBytes...)
	}
	return out
}

// Deserialize reconstructs a column of rows rows serialized by
// Serialize. A payload that claims any other row count is refused
// before anything is allocated, and every length field is validated
// against the remaining buffer and against the row count, so corrupt
// block payloads yield ErrCorrupt instead of panicking or
// over-allocating.
func Deserialize(b []byte, rows int) (*Column, error) {
	if len(b) < 5 {
		return nil, ErrCorrupt
	}
	if b[0]&dictMarker != 0 {
		c, rest, err := deserializeCodes(b, rows)
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
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n != rows {
		return nil, ErrCorrupt
	}
	words := func() ([]uint64, bool) {
		if len(b) < 4 {
			return nil, false
		}
		w := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if w < 0 || w > (n+63)/64 || len(b) < w*8 {
			return nil, false
		}
		if w == 0 {
			return nil, true // nil, as appends leave it: no NULLs
		}
		ws := make([]uint64, w)
		for i := range ws {
			ws[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		b = b[w*8:]
		return ws, true
	}
	c := &Column{Vector: vec.Vector{Type: SQLType(typ)}, typ: typ, n: n, shared: true}
	var ok bool
	if c.Nulls, ok = words(); !ok {
		return nil, ErrCorrupt
	}
	switch typ {
	case keypath.TypeBigInt, keypath.TypeTimestamp, keypath.TypeDouble:
		if len(b) < n*8 {
			return nil, ErrCorrupt
		}
		if typ == keypath.TypeDouble {
			c.Floats = make([]float64, n)
			for i := range c.Floats {
				c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			}
		} else {
			c.Ints = make([]int64, n)
			for i := range c.Ints {
				c.Ints[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
			}
		}
		b = b[n*8:]
	case keypath.TypeBool:
		if c.Bools, ok = words(); !ok {
			return nil, ErrCorrupt
		}
	case keypath.TypeString:
		if len(b) < n*4+4 {
			return nil, ErrCorrupt
		}
		c.StrOff = make([]uint32, n)
		prev := uint32(0)
		for i := range c.StrOff {
			o := binary.LittleEndian.Uint32(b[i*4:])
			if o < prev {
				return nil, ErrCorrupt // offsets must be monotonic
			}
			c.StrOff[i] = o
			prev = o
		}
		b = b[n*4:]
		bl := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if bl < 0 || len(b) < bl || (n > 0 && int(c.StrOff[n-1]) != bl) {
			return nil, ErrCorrupt
		}
		c.StrBytes = append([]byte(nil), b[:bl]...)
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
