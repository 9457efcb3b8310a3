// Key kernels: hashing, identity and ordering of vector cells as join
// and GROUP BY keys, without boxing. A key's identity is its SQL type
// plus its payload — integers by value, floats by bit pattern, text by
// bytes, ::JSON documents by their text — so keys of different SQL types never match, and NULL equals
// only NULL (GROUP BY puts NULLs in one group; joins drop NULL keys
// before they get here).
package vec

import (
	"bytes"
	"math"
	"strings"

	"repro/internal/expr"
	"repro/internal/xxhash"
)

const nullHash = 0x9ae16a3b2f90404f

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func typeSeed(t expr.SQLType) uint64 { return uint64(t) * 0x9e3779b97f4a7c15 }

// HashCell hashes row i of v as a key cell; a ::JSON document hashes
// by its text.
func HashCell(v *Vector, i int) uint64 {
	switch {
	case v.IsNull(i):
		return nullHash
	case v.Boxed != nil:
		return xxhash.Sum64([]byte(v.Boxed[i].String())) + typeSeed(v.Type)
	case v.Type == expr.TText:
		return xxhash.Sum64(v.StrAt(i)) + typeSeed(v.Type)
	case v.Type == expr.TFloat:
		return mix(math.Float64bits(v.Floats[i]) + typeSeed(v.Type))
	case v.Type == expr.TBool:
		if v.Bool(i) {
			return mix(1 + typeSeed(v.Type))
		}
		return mix(typeSeed(v.Type))
	default:
		return mix(uint64(v.Ints[i]) + typeSeed(v.Type))
	}
}

// HashRow hashes row i of the key vectors as one key.
func HashRow(keys []*Vector, i int) uint64 {
	var h uint64
	for k, v := range keys {
		c := HashCell(v, i)
		if k > 0 {
			c = mix(h*31 + c)
		}
		h = c
	}
	return h
}

// HashKeys writes HashRow into out[i] for every selected row i; out
// must hold the batch's physical row count.
func HashKeys(keys []*Vector, sel []int32, out []uint64) {
	if len(keys) == 1 && plainInts(keys[0]) {
		ints, seed := keys[0].Ints, typeSeed(keys[0].Type)
		for _, i := range sel {
			out[i] = mix(uint64(ints[i]) + seed)
		}
		return
	}
	for _, i := range sel {
		out[i] = HashRow(keys, int(i))
	}
}

// NotNullSel appends to out the selected rows whose key cells are all
// non-NULL — the rows a join may match.
func NotNullSel(keys []*Vector, sel, out []int32) []int32 {
rows:
	for _, i := range sel {
		for _, v := range keys {
			if v.IsNull(int(i)) {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}

// cmpBytesString is bytes.Compare(b, []byte(s)) without the copy.
func cmpBytesString(b []byte, s string) int {
	switch {
	case string(b) < s:
		return -1
	case string(b) > s:
		return 1
	}
	return 0
}

// floatOrder maps a float's bits to an unsigned key whose order is the
// IEEE total order (-NaN < -Inf < … < -0 < +0 < … < +Inf < +NaN).
func floatOrder(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// CompareKeyCells orders row i of a against row j of b as keys: NULL
// first, then by SQL type, then by payload (floats in IEEE total
// order, so distinct bit patterns never tie). Zero means the same key.
func CompareKeyCells(a *Vector, i int, b *Vector, j int) int {
	an, bn := a.IsNull(i), b.IsNull(j)
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		}
		return 1
	}
	if a.Type != b.Type {
		return cmp3Int(int64(a.Type), int64(b.Type))
	}
	switch a.Type {
	case expr.TBigInt, expr.TTimestamp:
		return cmp3Int(a.Ints[i], b.Ints[j])
	case expr.TFloat:
		x, y := floatOrder(a.Floats[i]), floatOrder(b.Floats[j])
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case expr.TText:
		return bytes.Compare(a.StrAt(i), b.StrAt(j))
	case expr.TBool:
		x, y := a.Bool(i), b.Bool(j)
		switch {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	default:
		return strings.Compare(a.Value(i).String(), b.Value(j).String())
	}
}

func plainInts(v *Vector) bool {
	return !v.AllNull && len(v.Nulls) == 0 && (v.Type == expr.TBigInt || v.Type == expr.TTimestamp)
}

// KeyEq returns a test for "row i of the a vectors is the same key as
// row j of the b vectors". The vectors are read at call time, so b may
// be the live view of Bufs appended to between calls; the test stays
// valid as long as only cells of the a vectors are appended to them.
func KeyEq(a, b []*Vector) func(i, j int) bool {
	if len(a) == 1 && plainInts(a[0]) && plainInts(b[0]) && a[0].Type == b[0].Type {
		av, bv := a[0], b[0]
		return func(i, j int) bool { return av.Ints[i] == bv.Ints[j] }
	}
	return func(i, j int) bool {
		for k := range a {
			if CompareKeyCells(a[k], i, b[k], j) != 0 {
				return false
			}
		}
		return true
	}
}

// CompareCellValue orders non-null row i of v against the non-null
// boxed x with SQL comparison semantics (expr.Compare): numeric types
// compare across types, text bytewise; ok is false for incomparable
// types.
func CompareCellValue(v *Vector, i int, x expr.Value) (c int, ok bool) {
	switch {
	case v.Type == expr.TText && x.Typ == expr.TText:
		return cmpBytesString(v.StrAt(i), x.S), true
	case v.Type == expr.TFloat && x.Typ == expr.TFloat:
		return cmp3Float(v.Floats[i], x.F), true
	case (v.Type == expr.TBigInt || v.Type == expr.TTimestamp) && x.Typ == v.Type:
		return cmp3Int(v.Ints[i], x.I), true
	}
	return expr.Compare(v.Value(i), x)
}
