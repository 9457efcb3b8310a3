// Dictionary kernels: predicate evaluation in code space. For a
// dictionary text vector the expensive string work happens once per
// distinct value — equality and range predicates binary-search the
// sorted dictionary and collapse to a contiguous code range, LIKE and
// IN test each dictionary entry once into a per-code mask — and the
// per-row loop then compares only integer codes.
package vec

import (
	"bytes"
	"sort"

	"repro/internal/expr"
)

// cmpStrsDict narrows sel by `col op const` on a dictionary vector.
func cmpStrsDict(v *Vector, op expr.CmpOp, cb []byte, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	sc.dictShortcuts++
	dl := v.DictLen()
	if dl == 0 {
		return out // every row is null
	}
	// lo is the first entry >= the constant; found means entry lo == it.
	lo := sort.Search(dl, func(k int) bool { return bytes.Compare(v.DictEntry(k), cb) >= 0 })
	found := lo < dl && bytes.Equal(v.DictEntry(lo), cb)
	if op == expr.NE {
		eq := int64(-1)
		if found {
			eq = int64(lo)
		}
		return selCodeNotEq(v, eq, sel, n, out)
	}
	var rlo, rhi uint32
	switch op {
	case expr.EQ:
		if !found {
			return out
		}
		rlo, rhi = uint32(lo), uint32(lo)+1
	case expr.LT:
		rlo, rhi = 0, uint32(lo)
	case expr.LE:
		rlo, rhi = 0, uint32(lo)
		if found {
			rhi++
		}
	case expr.GT:
		rlo, rhi = uint32(lo), uint32(dl)
		if found {
			rlo++
		}
	default: // GE
		rlo, rhi = uint32(lo), uint32(dl)
	}
	return selCodeRange(v, rlo, rhi, sel, n, out)
}

// selCodeRange selects non-null rows whose code lies in [lo, hi).
func selCodeRange(v *Vector, lo, hi uint32, sel []int32, n int, out []int32) []int32 {
	if lo >= hi {
		return out
	}
	switch {
	case v.Codes8 != nil:
		return codeRangeLoop(v, v.Codes8, lo, hi, sel, n, out)
	case v.Codes16 != nil:
		return codeRangeLoop(v, v.Codes16, lo, hi, sel, n, out)
	default:
		return codeRangeLoop(v, v.Codes32, lo, hi, sel, n, out)
	}
}

func codeRangeLoop[T uint8 | uint16 | uint32](v *Vector, codes []T, lo, hi uint32, sel []int32, n int, out []int32) []int32 {
	if sel != nil {
		for _, i := range sel {
			k := uint32(codes[i])
			if k >= lo && k < hi && !v.IsNull(int(i)) {
				out = append(out, i)
			}
		}
		return out
	}
	if v.Nulls == nil {
		// Dense, null-free inner loop: pure integer compares.
		for i := 0; i < n; i++ {
			k := uint32(codes[i])
			if k >= lo && k < hi {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		k := uint32(codes[i])
		if k >= lo && k < hi && !v.IsNull(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// selCodeNotEq selects non-null rows whose code differs from eq
// (eq < 0 selects every non-null row).
func selCodeNotEq(v *Vector, eq int64, sel []int32, n int, out []int32) []int32 {
	switch {
	case v.Codes8 != nil:
		return codeNotEqLoop(v, v.Codes8, eq, sel, n, out)
	case v.Codes16 != nil:
		return codeNotEqLoop(v, v.Codes16, eq, sel, n, out)
	default:
		return codeNotEqLoop(v, v.Codes32, eq, sel, n, out)
	}
}

func codeNotEqLoop[T uint8 | uint16 | uint32](v *Vector, codes []T, eq int64, sel []int32, n int, out []int32) []int32 {
	if sel != nil {
		for _, i := range sel {
			if int64(codes[i]) != eq && !v.IsNull(int(i)) {
				out = append(out, i)
			}
		}
		return out
	}
	if v.Nulls == nil {
		for i := 0; i < n; i++ {
			if int64(codes[i]) != eq {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if int64(codes[i]) != eq && !v.IsNull(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// selCodeMask selects non-null rows whose code's mask entry is true.
// The mask must have one entry per dictionary code.
func selCodeMask(v *Vector, mask []bool, sel []int32, n int, out []int32) []int32 {
	switch {
	case v.Codes8 != nil:
		return codeMaskLoop(v, v.Codes8, mask, sel, n, out)
	case v.Codes16 != nil:
		return codeMaskLoop(v, v.Codes16, mask, sel, n, out)
	default:
		return codeMaskLoop(v, v.Codes32, mask, sel, n, out)
	}
}

func codeMaskLoop[T uint8 | uint16 | uint32](v *Vector, codes []T, mask []bool, sel []int32, n int, out []int32) []int32 {
	if sel != nil {
		for _, i := range sel {
			if mask[codes[i]] && !v.IsNull(int(i)) {
				out = append(out, i)
			}
		}
		return out
	}
	if v.Nulls == nil {
		for i := 0; i < n; i++ {
			if mask[codes[i]] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if mask[codes[i]] && !v.IsNull(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// codeMask returns the scratch's per-code mask resized to dl entries
// (contents unspecified; callers overwrite or clear).
func (sc *Scratch) codeMask(dl int) []bool {
	if cap(sc.mask) < dl {
		sc.mask = make([]bool, dl)
	}
	sc.mask = sc.mask[:dl]
	return sc.mask
}

// likeDict evaluates the LIKE pattern once per dictionary entry and
// filters rows on the resulting per-code mask.
func (p *likePred) likeDict(v *Vector, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	sc.dictShortcuts++
	dl := v.DictLen()
	if dl == 0 {
		return out
	}
	mask := sc.codeMask(dl)
	for k := 0; k < dl; k++ {
		mask[k] = p.match(v.DictEntry(k)) != p.negate
	}
	return selCodeMask(v, mask, sel, n, out)
}

// inDict binary-searches each IN constant in the dictionary and
// filters rows on the resulting per-code mask.
func (p *inPred) inDict(v *Vector, sel []int32, n int, out []int32, sc *Scratch) []int32 {
	sc.dictShortcuts++
	dl := v.DictLen()
	if dl == 0 {
		return out
	}
	mask := sc.codeMask(dl)
	for k := range mask {
		mask[k] = false
	}
	any := false
	for _, c := range p.strs {
		k := sort.Search(dl, func(k int) bool { return bytes.Compare(v.DictEntry(k), c) >= 0 })
		if k < dl && bytes.Equal(v.DictEntry(k), c) {
			mask[k] = true
			any = true
		}
	}
	if p.negate {
		for k := range mask {
			mask[k] = !mask[k]
		}
	} else if !any {
		return out
	}
	return selCodeMask(v, mask, sel, n, out)
}
