// Package vec implements the vectorized batch representation of the
// execution engine: typed column vectors over one tile-sized chunk of
// rows, a selection vector naming the surviving rows, and the
// predicate / aggregate kernels that operate on whole vectors without
// boxing individual cells into expr.Value.
//
// The layout mirrors the JSON-tiles storage (paper §4): a tile's
// materialized columns are flat typed slices, so a scan can hand them
// to the engine zero-copy; accesses the tile cannot serve whole from a
// column, and every format without tiles, are resolved row by row and
// written straight into typed vectors by a Buf. A vector's type is
// its cells' type: only ::JSON documents are boxed. Downstream
// operators filter by narrowing the selection vector and aggregate by
// looping directly over the typed slices — the batch-at-a-time design
// of vectorized analytics engines.
package vec

import (
	"repro/internal/expr"
)

// Vector is one column of a batch. A vector of a scalar type keeps its
// cells in that type's backing, and Boxed is set only when Type is
// TJSON, so every kernel reads a scalar vector's cells typed. Exactly
// one backing is populated:
//
//   - Ints for TBigInt and TTimestamp
//   - Floats for TFloat
//   - Bools (a bitmap) for TBool
//   - StrOff/StrBytes (an arena of end offsets and bytes) for TText
//   - Boxed for TJSON documents
//
// A text vector may also hold one code slice (Codes8, Codes16 or
// Codes32) mapping row i to arena entry code i; with none, row i is
// entry i. Codes let a dictionary column and a gather share their
// source's arena instead of copying bytes. Dict means the arena is the
// column's sorted, distinct dictionary (zero-copy from storage), so
// kernels may evaluate a string predicate once per entry and then
// filter on the codes. A null row's code is 0.
//
// A TNull vector has no backing: it is AllNull. AllNull marks a vector
// whose every row is NULL without any backing (the path provably never
// occurs in the tile). Nulls is a bitmap (bit i set = row i NULL); nil
// means no nulls. Fast-path vectors alias storage-owned slices and
// must be treated as read-only.
type Vector struct {
	Type    expr.SQLType
	Dict    bool
	AllNull bool
	Nulls   []uint64

	Ints     []int64
	Floats   []float64
	Bools    []uint64
	StrOff   []uint32
	StrBytes []byte
	Boxed    []expr.Value

	Codes8  []uint8
	Codes16 []uint16
	Codes32 []uint32
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.AllNull {
		return true
	}
	if v.Boxed != nil {
		return v.Boxed[i].Null
	}
	w := i >> 6
	if w >= len(v.Nulls) {
		return false
	}
	return v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// Int returns the int64 backing of row i (TBigInt, TTimestamp).
func (v *Vector) Int(i int) int64 { return v.Ints[i] }

// Float returns the float64 backing of row i.
func (v *Vector) Float(i int) float64 { return v.Floats[i] }

// Bool returns the boolean backing of row i.
func (v *Vector) Bool(i int) bool {
	w := i >> 6
	if w >= len(v.Bools) {
		return false
	}
	return v.Bools[w]&(1<<(uint(i)&63)) != 0
}

// StrAt returns the text of row i without copying. Callers must not
// retain or mutate the slice, and must check IsNull first (a null
// row's bytes are unspecified).
func (v *Vector) StrAt(i int) []byte { return v.DictEntry(int(v.CodeAt(i))) }

// CodeAt returns the arena entry of text row i: its code, or i itself
// when the vector has no code slice.
func (v *Vector) CodeAt(i int) uint32 {
	switch {
	case v.Codes8 != nil:
		return uint32(v.Codes8[i])
	case v.Codes16 != nil:
		return uint32(v.Codes16[i])
	case v.Codes32 != nil:
		return v.Codes32[i]
	}
	return uint32(i)
}

// DictLen returns the number of arena entries.
func (v *Vector) DictLen() int { return len(v.StrOff) }

// DictEntry returns arena entry k without copying; a Dict vector's
// entries are sorted ascending. Callers must not retain or mutate the
// slice.
func (v *Vector) DictEntry(k int) []byte {
	var start uint32
	if k > 0 {
		start = v.StrOff[k-1]
	}
	return v.StrBytes[start:v.StrOff[k]]
}

// Value boxes row i into an engine value.
func (v *Vector) Value(i int) expr.Value {
	if v.Boxed != nil {
		return v.Boxed[i]
	}
	if v.IsNull(i) {
		return expr.NullValue()
	}
	switch v.Type {
	case expr.TBigInt:
		return expr.IntValue(v.Ints[i])
	case expr.TTimestamp:
		return expr.TimestampValue(v.Ints[i])
	case expr.TFloat:
		return expr.FloatValue(v.Floats[i])
	case expr.TBool:
		return expr.BoolValue(v.Bool(i))
	case expr.TText:
		return expr.TextValue(string(v.StrAt(i)))
	}
	return expr.NullValue()
}

// NullVector returns an all-NULL vector of type t, of any row count.
func NullVector(t expr.SQLType) Vector {
	return Vector{Type: t, AllNull: true}
}

// Batch is one chunk of rows flowing through the batch execution
// path: column vectors, the physical row count, and an optional
// selection vector naming the selected physical rows in ascending
// order (nil selects every row). Base is the global row id of
// physical row 0. Like emitted rows, a batch and its vectors are
// only valid during the emit call that delivers them.
type Batch struct {
	Cols []Vector
	Len  int
	Sel  []int32
	Base int64
}

// Rows returns the number of selected rows.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len
}

// identity is the shared identity selection [0, len): read-only.
var identity = func() []int32 {
	s := make([]int32, 1<<16)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// Iota returns the identity selection [0, n). The result is shared and
// must not be written.
func Iota(n int) []int32 {
	if n <= len(identity) {
		return identity[:n]
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// Selected returns the batch's selection with nil spelled out as the
// identity, for loops that want one shape.
func (b *Batch) Selected() []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return Iota(b.Len)
}
