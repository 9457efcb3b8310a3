// Differential test of the batch-native operators against a naive
// oracle written here: a nested-loop join, a map-of-rows group-by and
// a full sort + cut, all over boxed rows. Inputs are random batches in
// every vector shape an operator can be handed (typed, boxed,
// dictionary and arena text in the same input, all-NULL, with and
// without a selection vector), pushed from several goroutines.
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/vec"
)

// The key semantics the operators are pinned to (DESIGN §5): NULL join
// keys never match, GROUP BY puts NULLs in one group, keys of different
// SQL types do not match, float keys compare by bit pattern.

// cellID renders a cell so that two cells print alike exactly when
// they are the same key: SQL type plus payload, floats by bits.
func cellID(v expr.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Typ == expr.TFloat:
		return fmt.Sprintf("f:%016x", math.Float64bits(v.F))
	case v.Typ == expr.TBigInt, v.Typ == expr.TTimestamp:
		return fmt.Sprintf("%d:%d", v.Typ, v.I)
	}
	return fmt.Sprintf("%d:%d:%s", v.Typ, len(v.String()), v.String())
}

func rowID(row []expr.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = cellID(v)
	}
	return strings.Join(parts, "|")
}

func rowIDs(rows [][]expr.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowID(r)
	}
	return out
}

func sameMultiset(t *testing.T, label string, got, want []string) {
	t.Helper()
	got, want = append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	sameSequence(t, label, got, want)
}

func sameSequence(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\n got: %q\nwant: %q", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d\n got: %q\nwant: %q", label, i, got[i], want[i])
		}
	}
}

var (
	diffTexts  = []string{"", "a", "a\x00\x04b", "b\x00\x04c", "b", "c", "ab", "\x00"}
	diffFloats = []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.5, math.Inf(1), 3}
)

// randCell draws a value of type t from a small domain (so keys
// repeat); key cells include the awkward values, plain ones do not.
func randCell(r *rand.Rand, t expr.SQLType, key bool) expr.Value {
	if r.Intn(6) == 0 {
		return expr.NullValue()
	}
	switch t {
	case expr.TBigInt:
		return expr.IntValue(int64(r.Intn(7) - 2))
	case expr.TTimestamp:
		return expr.TimestampValue(int64(r.Intn(5)) * 1e6)
	case expr.TFloat:
		if key {
			return expr.FloatValue(diffFloats[r.Intn(len(diffFloats))])
		}
		return expr.FloatValue(float64(r.Intn(17)-8) / 4)
	case expr.TBool:
		return expr.BoolValue(r.Intn(2) == 0)
	default:
		if key {
			return expr.TextValue(diffTexts[r.Intn(len(diffTexts))])
		}
		return expr.TextValue(diffTexts[1+r.Intn(6)])
	}
}

// makeVector lays physical cells out in a randomly chosen shape.
func makeVector(r *rand.Rand, t expr.SQLType, cells []expr.Value, selected []int32) vec.Vector {
	allNull := true
	for _, i := range selected {
		allNull = allNull && cells[i].Null
	}
	if allNull && r.Intn(2) == 0 {
		return vec.NullVector(t)
	}
	v := vec.Vector{Type: t}
	setNull := func(i int) {
		for len(v.Nulls) <= i>>6 {
			v.Nulls = append(v.Nulls, 0)
		}
		v.Nulls[i>>6] |= 1 << (uint(i) & 63)
	}
	dict := t == expr.TText && r.Intn(2) == 0
	var entries []string
	if dict {
		seen := map[string]bool{}
		for _, c := range cells {
			if !c.Null && !seen[c.S] {
				seen[c.S] = true
				entries = append(entries, c.S)
			}
		}
		sort.Strings(entries)
		v.Dict = true
		for _, e := range entries {
			v.StrBytes = append(v.StrBytes, e...)
			v.StrOff = append(v.StrOff, uint32(len(v.StrBytes)))
		}
		v.Codes8 = make([]uint8, len(cells))
	}
	for i, c := range cells {
		if c.Null {
			setNull(i)
		}
		switch {
		case t == expr.TBool:
			for len(v.Bools) <= i>>6 {
				v.Bools = append(v.Bools, 0)
			}
			if c.B {
				v.Bools[i>>6] |= 1 << (uint(i) & 63)
			}
		case t == expr.TFloat:
			v.Floats = append(v.Floats, c.F)
		case dict:
			if !c.Null {
				v.Codes8[i] = uint8(sort.SearchStrings(entries, c.S))
			}
		case t == expr.TText:
			v.StrBytes = append(v.StrBytes, c.S...)
			v.StrOff = append(v.StrOff, uint32(len(v.StrBytes)))
		default:
			v.Ints = append(v.Ints, c.I)
		}
	}
	return v
}

// batchSource is a test operator pushing prebuilt batches from
// `workers` goroutines.
type batchSource struct {
	cols    []ColumnDesc
	batches []*vec.Batch
	rows    [][]expr.Value // the selected rows, in batch order
}

func (s *batchSource) Columns() []ColumnDesc { return s.cols }

func (s *batchSource) RunBatches(workers int, emit BatchEmitFunc) {
	workers = max(workers, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(s.batches); i += workers {
				b := *s.batches[i]
				emit(w, &b)
			}
		}(w)
	}
	wg.Wait()
}

// randSource draws about n rows over the given column types, split
// into batches of random shapes. The first keyCols columns get the
// awkward key values; column idCol (if any) numbers the rows.
func randSource(r *rand.Rand, types []expr.SQLType, keyCols, n, idCol int) *batchSource {
	id := int64(0)
	s := &batchSource{cols: make([]ColumnDesc, len(types))}
	for c, t := range types {
		s.cols[c] = ColumnDesc{Name: fmt.Sprintf("c%d", c), Type: t}
	}
	for n > 0 {
		phys := 1 + r.Intn(40)
		var sel []int32
		useSel := r.Intn(2) == 0
		for i := 0; i < phys; i++ {
			if !useSel || r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		b := &vec.Batch{Len: phys, Cols: make([]vec.Vector, len(types))}
		if useSel {
			b.Sel = append([]int32{}, sel...)
		}
		cells := make([][]expr.Value, len(types))
		for c, t := range types {
			nullCol := r.Intn(10) == 0
			cells[c] = make([]expr.Value, phys)
			for i := range cells[c] {
				switch {
				case c == idCol:
					cells[c][i] = expr.IntValue(id)
					id++
				case nullCol:
					cells[c][i] = expr.NullValue()
				default:
					cells[c][i] = randCell(r, t, c < keyCols)
				}
			}
			b.Cols[c] = makeVector(r, t, cells[c], sel)
		}
		for _, i := range sel {
			row := make([]expr.Value, len(types))
			for c := range types {
				row[c] = cells[c][i]
			}
			s.rows = append(s.rows, row)
		}
		s.batches = append(s.batches, b)
		n -= len(sel)
	}
	return s
}

var diffWorkers = []int{1, 2, 3, 8}

var keyTypeSets = [][]expr.SQLType{
	{expr.TBigInt}, {expr.TTimestamp}, {expr.TText}, {expr.TFloat},
	{expr.TText, expr.TText}, {expr.TBigInt, expr.TFloat}, {expr.TText, expr.TBigInt, expr.TTimestamp},
}

// oracleJoin is the nested-loop join over boxed rows.
func oracleJoin(build, probe [][]expr.Value, bk, pk []int, jt JoinType, buildWidth int) [][]expr.Value {
	match := func(b, p []expr.Value) bool {
		for k := range bk {
			if b[bk[k]].Null || p[pk[k]].Null || cellID(b[bk[k]]) != cellID(p[pk[k]]) {
				return false
			}
		}
		return true
	}
	var out [][]expr.Value
	for _, p := range probe {
		n := 0
		for _, b := range build {
			if match(b, p) {
				n++
				if jt == InnerJoin || jt == OuterJoin {
					out = append(out, append(append([]expr.Value{}, p...), b...))
				}
			}
		}
		switch {
		case jt == SemiJoin && n > 0, jt == AntiJoin && n == 0:
			out = append(out, p)
		case jt == OuterJoin && n == 0:
			row := append([]expr.Value{}, p...)
			for i := 0; i < buildWidth; i++ {
				row = append(row, expr.NullValue())
			}
			out = append(out, row)
		}
	}
	return out
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		keys := keyTypeSets[trial%len(keyTypeSets)]
		types := append(append([]expr.SQLType{}, keys...), expr.TBigInt, expr.TText)
		// Few build rows: probes with 0, 1 and many matches; every
		// third trial has unique-ish keys only by chance.
		build := randSource(r, types, len(keys), 1+r.Intn(30), -1)
		probe := randSource(r, types, len(keys), 1+r.Intn(120), -1)
		ks := make([]int, len(keys))
		for k := range ks {
			ks[k] = k
		}
		for _, jt := range []JoinType{InnerJoin, SemiJoin, AntiJoin, OuterJoin} {
			want := rowIDs(oracleJoin(build.rows, probe.rows, ks, ks, jt, len(types)))
			for _, w := range diffWorkers {
				label := fmt.Sprintf("trial %d keys %v join %d workers %d", trial, keys, jt, w)
				sameMultiset(t, label, rowIDs(Materialize(NewHashJoin(build, probe, ks, ks, jt), w).Rows), want)
				// The same build side replayed from rows.
				vals := NewValues(&Result{Cols: build.cols, Rows: build.rows})
				sameMultiset(t, label+" (Values build)", rowIDs(Materialize(NewHashJoin(vals, probe, ks, ks, jt), w).Rows), want)
			}
		}
	}
}

// TestJoinKeysOfDifferentTypesDoNotMatch: 1 (BigInt), 1.0 (Float) and
// the timestamp 1 are three keys.
func TestJoinKeysOfDifferentTypesDoNotMatch(t *testing.T) {
	side := func(typ expr.SQLType, v expr.Value) *Values {
		return NewValues(&Result{Cols: []ColumnDesc{{Name: "k", Type: typ}}, Rows: [][]expr.Value{{v}}})
	}
	vals := []struct {
		t expr.SQLType
		v expr.Value
	}{{expr.TBigInt, expr.IntValue(1)}, {expr.TFloat, expr.FloatValue(1)}, {expr.TTimestamp, expr.TimestampValue(1)}}
	for i, b := range vals {
		for j, p := range vals {
			n := CountRows(NewHashJoin(side(b.t, b.v), side(p.t, p.v), []int{0}, []int{0}, InnerJoin), 1)
			if want := int64(0); (i == j) != (n == 1) || (i != j && n != want) {
				t.Errorf("build %v probe %v: %d matches", b.v, p.v, n)
			}
		}
	}
}

// TestCompositeTextKeysDoNotCollide is the regression test for the
// separator-concatenated string keys: ("a\x00\x04b","c") and
// ("a","b\x00\x04c") rendered to the same key, so GROUP BY merged the
// two groups and an inner join matched across them.
func TestCompositeTextKeysDoNotCollide(t *testing.T) {
	cols := []ColumnDesc{{Name: "x", Type: expr.TText}, {Name: "y", Type: expr.TText}}
	one := &Result{Cols: cols, Rows: [][]expr.Value{{expr.TextValue("a\x00\x04b"), expr.TextValue("c")}}}
	two := &Result{Cols: cols, Rows: [][]expr.Value{{expr.TextValue("a"), expr.TextValue("b\x00\x04c")}}}
	both := &Result{Cols: cols, Rows: append(append([][]expr.Value{}, one.Rows...), two.Rows...)}
	gb := NewGroupBy(NewValues(both),
		[]expr.Expr{expr.NewCol(0, expr.TText), expr.NewCol(1, expr.TText)}, []string{"x", "y"},
		[]AggSpec{{Func: CountStar, Name: "n"}})
	if res := Materialize(gb, 1); len(res.Rows) != 2 || res.Rows[0][2].I != 1 {
		t.Errorf("GROUP BY merged distinct composite keys: %v", res.Rows)
	}
	if n := CountRows(NewHashJoin(NewValues(one), NewValues(two), []int{0, 1}, []int{0, 1}, InnerJoin), 1); n != 0 {
		t.Errorf("inner join matched distinct composite keys (%d rows)", n)
	}
}

// oracleGroupBy groups boxed rows in a map keyed by the key cells'
// identities and aggregates each group's rows naively: COUNT(*),
// COUNT(c), SUM, AVG, MIN, MAX and COUNT(DISTINCT c) of the int
// column vi, and SUM and MAX of the float column vf, MIN of text vt.
func oracleGroupBy(rows [][]expr.Value, nKeys, vi, vf, vt int) [][]expr.Value {
	groups := map[string][][]expr.Value{}
	var order []string
	for _, row := range rows {
		id := rowID(row[:nKeys])
		if _, ok := groups[id]; !ok {
			order = append(order, id)
		}
		groups[id] = append(groups[id], row)
	}
	var out [][]expr.Value
	for _, id := range order {
		g := groups[id]
		var n, cnt, sumI int64
		var sumF float64
		var cntF int64
		distinct := map[int64]bool{}
		minI, maxI, maxF, minT := expr.NullValue(), expr.NullValue(), expr.NullValue(), expr.NullValue()
		for _, row := range g {
			n++
			if v := row[vi]; !v.Null {
				cnt++
				sumI += v.I
				distinct[v.I] = true
				if minI.Null || v.I < minI.I {
					minI = v
				}
				if maxI.Null || v.I > maxI.I {
					maxI = v
				}
			}
			if v := row[vf]; !v.Null {
				cntF++
				sumF += v.F
				if maxF.Null || v.F > maxF.F {
					maxF = v
				}
			}
			if v := row[vt]; !v.Null && (minT.Null || v.S < minT.S) {
				minT = v
			}
		}
		res := append([]expr.Value{}, g[0][:nKeys]...)
		res = append(res, expr.IntValue(n), expr.IntValue(cnt))
		if cnt == 0 {
			res = append(res, expr.NullValue(), expr.NullValue())
		} else {
			res = append(res, expr.IntValue(sumI), expr.FloatValue(float64(sumI)/float64(cnt)))
		}
		res = append(res, minI, maxI, expr.IntValue(int64(len(distinct))))
		if cntF == 0 {
			res = append(res, expr.NullValue())
		} else {
			res = append(res, expr.FloatValue(sumF))
		}
		out = append(out, append(res, maxF, minT))
	}
	return out
}

func TestGroupByMatchesMapOfRows(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		keys := keyTypeSets[trial%len(keyTypeSets)]
		nk := len(keys)
		types := append(append([]expr.SQLType{}, keys...), expr.TBigInt, expr.TFloat, expr.TText)
		src := randSource(r, types, nk, r.Intn(400), -1)
		groups, names := make([]expr.Expr, nk), make([]string, nk)
		for k := range keys {
			groups[k], names[k] = expr.NewCol(k, keys[k]), fmt.Sprintf("k%d", k)
		}
		if trial%3 == 0 {
			groups = nil // global aggregation
			names = nil
		}
		vi, vf, vt := expr.NewCol(nk, expr.TBigInt), expr.NewCol(nk+1, expr.TFloat), expr.NewCol(nk+2, expr.TText)
		aggs := []AggSpec{
			{Func: CountStar, Name: "n"}, {Func: Count, Arg: vi, Name: "c"},
			{Func: Sum, Arg: vi, Name: "s"}, {Func: Avg, Arg: vi, Name: "a"},
			{Func: Min, Arg: vi, Name: "lo"}, {Func: Max, Arg: vi, Name: "hi"},
			{Func: Count, Arg: vi, Name: "d", Distinct: true},
			{Func: Sum, Arg: vf, Name: "sf"}, {Func: Max, Arg: vf, Name: "mf"}, {Func: Min, Arg: vt, Name: "mt"},
		}
		want := oracleGroupBy(src.rows, len(groups), nk, nk+1, nk+2)
		if groups == nil && len(src.rows) == 0 {
			// Global aggregation over no rows still yields one row.
			nulls := make([]expr.Value, len(types))
			for i := range nulls {
				nulls[i] = expr.NullValue()
			}
			want = oracleGroupBy([][]expr.Value{nulls}, 0, nk, nk+1, nk+2)
			want[0][0] = expr.IntValue(0)
		}
		var first []string
		for _, input := range []Operator{src, NewValues(&Result{Cols: src.cols, Rows: src.rows})} {
			for _, w := range diffWorkers {
				label := fmt.Sprintf("trial %d keys %v workers %d input %T", trial, keys, w, input)
				got := rowIDs(Materialize(NewGroupBy(input, groups, names, aggs), w).Rows)
				sameMultiset(t, label, got, rowIDs(want))
				// Emission order is the typed key order whatever the
				// worker count and the input's vector shapes.
				if first == nil {
					first = got
				}
				sameSequence(t, label+" (order)", got, first)
			}
		}
	}
}

// TestGroupOrderIsTypedKeyOrder pins the emission order: NULL first,
// integers by value (not by their decimal string), floats in IEEE
// total order with -0 before +0.
func TestGroupOrderIsTypedKeyOrder(t *testing.T) {
	emit := func(typ expr.SQLType, vals ...expr.Value) []string {
		res := &Result{Cols: []ColumnDesc{{Name: "k", Type: typ}}}
		for _, v := range vals {
			res.Rows = append(res.Rows, []expr.Value{v})
		}
		gb := NewGroupBy(NewValues(res), []expr.Expr{expr.NewCol(0, typ)}, []string{"k"}, []AggSpec{{Func: CountStar, Name: "n"}})
		var out []string
		for _, row := range Materialize(gb, 3).Rows {
			out = append(out, cellID(row[0]))
		}
		return out
	}
	sameSequence(t, "ints", emit(expr.TBigInt, expr.IntValue(10), expr.IntValue(9), expr.NullValue(), expr.IntValue(-1), expr.IntValue(100)),
		[]string{"NULL", cellID(expr.IntValue(-1)), cellID(expr.IntValue(9)), cellID(expr.IntValue(10)), cellID(expr.IntValue(100))})
	negZero := math.Copysign(0, -1)
	sameSequence(t, "floats", emit(expr.TFloat, expr.FloatValue(0), expr.FloatValue(math.NaN()), expr.FloatValue(negZero), expr.FloatValue(-3), expr.FloatValue(math.Inf(1))),
		[]string{cellID(expr.FloatValue(-3)), cellID(expr.FloatValue(negZero)), cellID(expr.FloatValue(0)), cellID(expr.FloatValue(math.Inf(1))), cellID(expr.FloatValue(math.NaN()))})
}

// TestMinMaxFloatsNaN pins the NaN rule of MIN/MAX (ported from the
// MinMaxFloats kernel's test): a leading NaN is kept, because no strict
// comparison replaces it, and a later NaN never replaces the running
// value — what expr.Compare produces row by row. With and without a
// selection vector, grouped and global.
func TestMinMaxFloatsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name             string
		floats           []float64
		sel              []int32
		wantMin, wantMax float64
	}{
		{"leading NaN", []float64{nan, 2, 1}, nil, nan, nan},
		{"interior NaN", []float64{2, nan, 1}, nil, 1, 2},
		{"trailing NaN", []float64{2, 1, nan}, nil, 1, 2},
		{"leading NaN deselected", []float64{nan, 2, nan, 1}, []int32{1, 2, 3}, 1, 2},
		{"first selected is NaN", []float64{3, nan, 2, 1}, []int32{1, 2, 3}, nan, nan},
	}
	same := func(got expr.Value, want float64) bool {
		return !got.Null && got.Typ == expr.TFloat && (got.F == want || (math.IsNaN(got.F) && math.IsNaN(want)))
	}
	vf := expr.NewCol(1, expr.TFloat)
	aggs := []AggSpec{{Func: Min, Arg: vf, Name: "lo"}, {Func: Max, Arg: vf, Name: "hi"}}
	for _, c := range cases {
		v := vec.Vector{Type: expr.TFloat, Floats: c.floats}
		key := vec.Vector{Type: expr.TBigInt, Ints: make([]int64, len(c.floats))} // one group
		src := &batchSource{
			cols:    []ColumnDesc{{Name: "k", Type: expr.TBigInt}, {Name: "v", Type: expr.TFloat}},
			batches: []*vec.Batch{{Len: len(c.floats), Sel: c.sel, Cols: []vec.Vector{key, v}}},
		}
		if c.sel == nil { // the answer does not depend on where a batch ends
			head, tail := v, v
			head.Floats, tail.Floats = v.Floats[:1], v.Floats[1:]
			src.batches = append(src.batches, &vec.Batch{Len: 1, Cols: []vec.Vector{key, head}},
				&vec.Batch{Len: len(c.floats) - 1, Cols: []vec.Vector{key, tail}})
		}
		for _, batches := range [][]*vec.Batch{src.batches[:1], src.batches[1:]} {
			if len(batches) == 0 {
				continue
			}
			in := &batchSource{cols: src.cols, batches: batches}
			global := Materialize(NewGroupBy(in, nil, nil, aggs), 1).Rows
			grouped := Materialize(NewGroupBy(in, []expr.Expr{expr.NewCol(0, expr.TBigInt)}, []string{"k"}, aggs), 1).Rows
			if len(global) != 1 || !same(global[0][0], c.wantMin) || !same(global[0][1], c.wantMax) {
				t.Errorf("%s, %d batches, global: got %v, want min %v max %v", c.name, len(batches), global, c.wantMin, c.wantMax)
			}
			if len(grouped) != 1 || !same(grouped[0][1], c.wantMin) || !same(grouped[0][2], c.wantMax) {
				t.Errorf("%s, %d batches, grouped: got %v, want min %v max %v", c.name, len(batches), grouped, c.wantMin, c.wantMax)
			}
		}
	}
}

// refOrder is the reference order of two cells, written over boxed
// values: NULL first, then expr.Compare, then the rendered text.
func refOrder(a, b expr.Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if c, ok := expr.Compare(a, b); ok && c != 0 {
		return c
	}
	return strings.Compare(a.String(), b.String())
}

// refSort stably sorts boxed rows by refOrder of each key, flipped for
// a descending key.
func refSort(rows [][]expr.Value, keys []OrderKey) [][]expr.Value {
	out := append([][]expr.Value{}, rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			if c := refOrder(k.E.Eval(out[i]), k.E.Eval(out[j])); c != 0 {
				return (c < 0) != k.Desc
			}
		}
		return false
	})
	return out
}

func TestTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		// Three sort keys that tie and carry NULLs, among them a Float
		// key with NaN and -0, then a unique id so the order is total.
		types := []expr.SQLType{[]expr.SQLType{expr.TBigInt, expr.TText, expr.TTimestamp, expr.TFloat}[trial%4], expr.TFloat, expr.TText, expr.TBigInt}
		src := randSource(r, types, 3, 1+r.Intn(300), 3)
		keys := []OrderKey{
			{E: expr.NewCol(0, types[0]), Desc: r.Intn(2) == 0},
			{E: expr.NewCol(1, expr.TFloat), Desc: r.Intn(2) == 0},
			{E: expr.NewCol(2, expr.TText), Desc: r.Intn(2) == 0},
			{E: expr.NewCol(3, expr.TBigInt)},
		}
		want := refSort(src.rows, keys)
		// K, 2K-1 and 2K+1 cut each worker's buffer more than once.
		k := 1 + r.Intn(6)
		for _, limit := range []int{0, 1, k, 2*k - 1, 2*k + 1, 1000} {
			cut := want
			if limit > 0 && len(cut) > limit {
				cut = cut[:limit]
			}
			for _, w := range diffWorkers {
				top := NewOrderBy(src, keys...)
				top.Limit = limit
				sameSequence(t, fmt.Sprintf("trial %d limit %d workers %d", trial, limit, w), rowIDs(Materialize(top, w).Rows), rowIDs(cut))
			}
		}
	}
}
