// Aggregate kernels: tight loops over the typed backing of a vector,
// restricted to the selected rows, folding into flat per-group state
// arrays. Integer sums keep a parallel float sum accumulated per
// element (AVG and mixed-type SUM read it).
package vec

// IntSums holds the result of a SumInts pass.
type IntSums struct {
	Sum   int64
	FSum  float64
	Count int64
}

// SumInts sums the selected non-null rows of an int-backed vector
// (TBigInt, TTimestamp).
func SumInts(v *Vector, sel []int32, n int) IntSums {
	var r IntSums
	ints := v.Ints
	if sel != nil {
		for _, i := range sel {
			if !v.IsNull(int(i)) {
				x := ints[i]
				r.Sum += x
				r.FSum += float64(x)
				r.Count++
			}
		}
		return r
	}
	if v.Nulls == nil {
		for i := 0; i < n; i++ {
			x := ints[i]
			r.Sum += x
			r.FSum += float64(x)
		}
		r.Count = int64(n)
		return r
	}
	for i := 0; i < n; i++ {
		if !v.IsNull(i) {
			x := ints[i]
			r.Sum += x
			r.FSum += float64(x)
			r.Count++
		}
	}
	return r
}

// AddInts folds the selected non-null rows of an int-backed vector
// into per-group running states: row i belongs to group gids[i], or
// every row to group 0 when gids is nil. Sums accumulate row by row in
// selection order onto the running value, so a group's float sum does
// not depend on where batch boundaries fall.
func AddInts(v *Vector, sel []int32, n int, gids []int32, cnt, sumI []int64, sumF []float64) {
	if gids == nil {
		r := SumInts(v, sel, n)
		cnt[0] += r.Count
		sumI[0] += r.Sum
		sumF[0] += r.FSum
		return
	}
	if sel == nil {
		sel = Iota(n)
	}
	for _, i := range sel {
		if !v.IsNull(int(i)) {
			g, x := gids[i], v.Ints[i]
			cnt[g]++
			sumI[g] += x
			sumF[g] += float64(x)
		}
	}
}

// AddFloats is AddInts over a float-backed vector.
func AddFloats(v *Vector, sel []int32, n int, gids []int32, cnt []int64, sumF []float64) {
	if sel == nil && gids == nil && v.Nulls == nil {
		s := sumF[0]
		for _, x := range v.Floats[:n] {
			s += x
		}
		cnt[0], sumF[0] = cnt[0]+int64(n), s
		return
	}
	if sel == nil {
		sel = Iota(n)
	}
	if gids == nil {
		c, s := cnt[0], sumF[0]
		for _, i := range sel {
			if !v.IsNull(int(i)) {
				c++
				s += v.Floats[i]
			}
		}
		cnt[0], sumF[0] = c, s
		return
	}
	for _, i := range sel {
		if !v.IsNull(int(i)) {
			g := gids[i]
			cnt[g]++
			sumF[g] += v.Floats[i]
		}
	}
}

// AddCounts counts the selected non-null rows of v per group; a nil v
// counts every selected row (COUNT(*)).
func AddCounts(v *Vector, sel []int32, n int, gids []int32, cnt []int64) {
	if v != nil && v.AllNull {
		return
	}
	noNulls := v == nil || (v.Boxed == nil && v.Nulls == nil)
	if sel == nil {
		sel = Iota(n)
	}
	if gids == nil {
		if noNulls {
			cnt[0] += int64(len(sel))
			return
		}
		for _, i := range sel {
			if !v.IsNull(int(i)) {
				cnt[0]++
			}
		}
		return
	}
	for _, i := range sel {
		if noNulls || !v.IsNull(int(i)) {
			cnt[gids[i]]++
		}
	}
}

// MinMax folds the selected non-null rows of a typed numeric vector
// (xs is its backing) into the running extreme acc — have says whether
// there is one yet — row by row in selection order: only a strictly
// better value replaces acc, so a leading NaN is kept and a later NaN
// never wins, wherever the batch boundaries fall.
func MinMax[T int64 | float64](v *Vector, xs []T, sel []int32, n int, isMin bool, acc T, have bool) (T, bool) {
	fold := func(x T) {
		if !have || (isMin && x < acc) || (!isMin && x > acc) {
			acc, have = x, true
		}
	}
	switch {
	case sel != nil:
		for _, i := range sel {
			if !v.IsNull(int(i)) {
				fold(xs[i])
			}
		}
	case v.Nulls == nil:
		for _, x := range xs[:n] {
			fold(x)
		}
	default:
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				fold(xs[i])
			}
		}
	}
	return acc, have
}
