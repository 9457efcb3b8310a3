package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsontext"
)

// jsonDocs are the documents a ::JSON cell is drawn from.
var jsonDocs = func() []expr.Value {
	var out []expr.Value
	for _, text := range []string{`{"a":1}`, `[1,"x"]`, `"s"`, `2.5`, `{}`, `{"a":{"b":null}}`} {
		v, err := jsontext.Parse([]byte(text))
		if err != nil {
			panic(err)
		}
		out = append(out, expr.JSONValue(jsonb.NewDoc(jsonb.Encode(v))))
	}
	return out
}()

// randCells draws n cells of type t, ~1/4 of them NULL.
func randCells(r *rand.Rand, t expr.SQLType, n int) []expr.Value {
	vals := make([]expr.Value, n)
	for i := range vals {
		if r.Intn(4) == 0 {
			vals[i] = expr.NullValue()
			continue
		}
		switch t {
		case expr.TBigInt:
			vals[i] = expr.IntValue(int64(r.Intn(21) - 10))
		case expr.TTimestamp:
			vals[i] = expr.TimestampValue(int64(r.Intn(1000)))
		case expr.TFloat:
			vals[i] = expr.FloatValue(float64(r.Intn(21)-10) / 2)
			if r.Intn(10) == 0 {
				vals[i] = expr.FloatValue(math.NaN()) // compares equal to anything
			}
		case expr.TBool:
			vals[i] = expr.BoolValue(r.Intn(2) == 0)
		case expr.TText:
			vals[i] = expr.TextValue([]string{"", "a", "ab", "abc", "b", "ba", "zz"}[r.Intn(7)])
		case expr.TJSON:
			vals[i] = jsonDocs[r.Intn(len(jsonDocs))]
		}
	}
	return vals
}

// buildVector makes an n-row vector of the given type with ~1/4 NULL
// rows, typed, or boxed for ::JSON.
func buildVector(r *rand.Rand, t expr.SQLType, n int) Vector {
	vals := randCells(r, t, n)
	if t == expr.TJSON {
		return Vector{Type: t, Boxed: vals}
	}
	v := Vector{Type: t}
	for i, x := range vals {
		if x.Null {
			w := i >> 6
			for len(v.Nulls) <= w {
				v.Nulls = append(v.Nulls, 0)
			}
			v.Nulls[w] |= 1 << (uint(i) & 63)
		}
		switch t {
		case expr.TBigInt, expr.TTimestamp:
			v.Ints = append(v.Ints, x.I)
		case expr.TFloat:
			v.Floats = append(v.Floats, x.F)
		case expr.TBool:
			if x.B {
				w := i >> 6
				for len(v.Bools) <= w {
					v.Bools = append(v.Bools, 0)
				}
				v.Bools[w] |= 1 << (uint(i) & 63)
			}
		case expr.TText:
			v.StrBytes = append(v.StrBytes, x.S...)
			v.StrOff = append(v.StrOff, uint32(len(v.StrBytes)))
		}
	}
	return v
}

// randomPred builds a random predicate over the batch's column slots:
// the shapes with typed kernels (comparisons with a constant, a column
// or arithmetic, IS NULL, IN, LIKE, bare columns, AND/OR/NOT) and a
// CASE that only the cell-by-cell fallback evaluates.
func randomPred(r *rand.Rand, types []expr.SQLType, depth int) expr.Expr {
	if depth > 0 && r.Intn(3) == 0 {
		l := randomPred(r, types, depth-1)
		rr := randomPred(r, types, depth-1)
		switch r.Intn(3) {
		case 0:
			return expr.NewAnd(l, rr)
		case 1:
			return expr.NewOr(l, rr)
		}
		return expr.NewNot(l)
	}
	slot := r.Intn(len(types))
	col := expr.NewCol(slot, types[slot])
	op := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}[r.Intn(6)]
	switch r.Intn(8) {
	case 0:
		return expr.NewIsNull(col, r.Intn(2) == 0)
	case 1:
		var consts []expr.Value
		for k := 0; k < 1+r.Intn(3); k++ {
			consts = append(consts, randConst(r, types[slot]))
		}
		return expr.NewIn(col, consts...)
	case 2:
		if types[slot] == expr.TText {
			return expr.NewLike(col, []string{"a%", "%b", "%a%", "ab", "%"}[r.Intn(5)])
		}
	case 3:
		other := r.Intn(len(types))
		return expr.NewCmp(op, col, expr.NewCol(other, types[other]))
	case 4:
		return expr.NewCmp(op, randomValue(r, types, 2), randomValue(r, types, 2))
	case 5:
		return col // a bare column as predicate
	case 6:
		return expr.NewCase([]expr.When{{Cond: expr.NewIsNull(col, false), Result: expr.NewConst(expr.BoolValue(true))}},
			expr.NewCmp(op, col, expr.NewConst(randConst(r, types[slot]))))
	}
	k := expr.NewConst(randConst(r, types[slot]))
	if r.Intn(2) == 0 {
		return expr.NewCmp(op, col, k)
	}
	return expr.NewCmp(op, k, col)
}

// randomValue builds a random value expression: columns, constants
// (NULL included) and + - * / over them.
func randomValue(r *rand.Rand, types []expr.SQLType, depth int) expr.Expr {
	if depth > 0 && r.Intn(2) == 0 {
		op := []expr.ArithOp{expr.Add, expr.Sub, expr.Mul, expr.Div}[r.Intn(4)]
		return expr.NewArith(op, randomValue(r, types, depth-1), randomValue(r, types, depth-1))
	}
	switch r.Intn(6) {
	case 0:
		return expr.NewConst(expr.IntValue(int64(r.Intn(5) - 2)))
	case 1:
		return expr.NewConst(expr.FloatValue(float64(r.Intn(5)-2) / 2))
	case 2:
		return expr.NewConst(expr.NullValue())
	}
	slot := r.Intn(len(types))
	return expr.NewCol(slot, types[slot])
}

func randConst(r *rand.Rand, t expr.SQLType) expr.Value {
	switch t {
	case expr.TBigInt:
		// Occasionally a cross-type numeric constant.
		if r.Intn(4) == 0 {
			return expr.FloatValue(float64(r.Intn(11) - 5))
		}
		return expr.IntValue(int64(r.Intn(11) - 5))
	case expr.TTimestamp:
		return expr.TimestampValue(int64(r.Intn(1000)))
	case expr.TFloat:
		return expr.FloatValue(float64(r.Intn(11)-5) / 2)
	case expr.TBool:
		return expr.BoolValue(r.Intn(2) == 0)
	default:
		return expr.TextValue([]string{"", "a", "ab", "b"}[r.Intn(4)])
	}
}

// TestCompiledPredMatchesRowEval is the kernel conformance property:
// for random batches (typed vectors and boxed ::JSON ones, with and
// without an input selection) and random predicates, the compiled selection must
// equal row-at-a-time WHERE evaluation.
func TestCompiledPredMatchesRowEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	types := []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TBool, expr.TTimestamp, expr.TJSON}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(100)
		b := &Batch{Len: n}
		colTypes := make([]expr.SQLType, 2+r.Intn(3))
		for i := range colTypes {
			colTypes[i] = types[r.Intn(len(types))]
			v := buildVector(r, colTypes[i], n)
			if r.Intn(3) == 0 {
				v.Nulls = nil // a null-free column: its NULL rows read as zero values
			}
			b.Cols = append(b.Cols, v)
		}
		if r.Intn(4) == 0 {
			// Random ascending input selection.
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					b.Sel = append(b.Sel, int32(i))
				}
			}
			if b.Sel == nil {
				b.Sel = []int32{}
			}
		}
		e := randomPred(r, colTypes, 2)
		p, ok := Compile(e, len(colTypes))
		if !ok {
			t.Fatalf("trial %d: predicate did not compile", trial)
		}
		got := p.Sel(b, p.NewScratch())

		// Row-at-a-time ground truth.
		row := make([]expr.Value, len(b.Cols))
		var want []int32
		each := func(i int) {
			for c := range b.Cols {
				row[c] = b.Cols[c].Value(i)
			}
			if e.Eval(row).IsTrue() {
				want = append(want, int32(i))
			}
		}
		if b.Sel != nil {
			for _, i := range b.Sel {
				each(int(i))
			}
		} else {
			for i := 0; i < n; i++ {
				each(i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: kernel sel %v != row sel %v (pred over %v)", trial, got, want, colTypes)
		}
	}
}

// TestCompileRejectsOnlyBadSlots: every expression shape compiles; a
// slot outside the batch is the one thing Compile refuses.
func TestCompileRejectsOnlyBadSlots(t *testing.T) {
	col := expr.NewCol(0, expr.TBigInt)
	ok := []expr.Expr{
		expr.NewNot(expr.NewCmp(expr.EQ, col, expr.NewConst(expr.IntValue(1)))),
		expr.NewCmp(expr.EQ, col, expr.NewCol(1, expr.TBigInt)),
		expr.NewCmp(expr.EQ,
			expr.NewArith(expr.Add, col, expr.NewConst(expr.IntValue(1))),
			expr.NewConst(expr.IntValue(2))),
	}
	for i, e := range ok {
		if _, ok := Compile(e, 2); !ok {
			t.Errorf("case %d: did not compile", i)
		}
	}
	for _, e := range []expr.Expr{expr.NewCol(5, expr.TBool), expr.NewCol(-1, expr.TBool),
		expr.NewCmp(expr.LT, col, expr.NewCol(2, expr.TBigInt))} {
		if _, ok := Compile(e, 2); ok {
			t.Errorf("%v: compiled with a slot outside the batch", e)
		}
	}
}

// TestCompiledExprMatchesRowEval: random value expressions over random
// batches evaluate, on every selected row, to exactly what expr.Eval
// gives for the boxed row — value, type and NULL.
func TestCompiledExprMatchesRowEval(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	types := []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TBool, expr.TTimestamp, expr.TJSON}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(100)
		b := &Batch{Len: n}
		colTypes := make([]expr.SQLType, 2+r.Intn(3))
		for i := range colTypes {
			colTypes[i] = types[r.Intn(len(types))]
			if r.Intn(8) == 0 {
				b.Cols = append(b.Cols, NullVector(colTypes[i]))
			} else {
				b.Cols = append(b.Cols, buildVector(r, colTypes[i], n))
			}
		}
		if r.Intn(3) == 0 {
			b.Sel = []int32{}
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					b.Sel = append(b.Sel, int32(i))
				}
			}
		}
		e := randomValue(r, colTypes, 3)
		c := CompileExpr(e)
		sc := c.NewScratch()
		for rep := 0; rep < 2; rep++ { // twice: the scratch is reused
			got := c.Eval(b, sc)
			row := make([]expr.Value, len(b.Cols))
			for _, i := range b.Selected() {
				for k := range b.Cols {
					row[k] = b.Cols[k].Value(int(i))
				}
				want, have := e.Eval(row), got.Value(int(i))
				if want.Null != have.Null || (!want.Null && (want.Typ != have.Typ || want.String() != have.String())) {
					t.Fatalf("trial %d row %d: %v (%v), want %v (%v)", trial, i, have, have.Typ, want, want.Typ)
				}
			}
		}
	}
}

func TestAggKernelsMatchManual(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(80)
		iv := buildVector(r, expr.TBigInt, n)
		fv := buildVector(r, expr.TFloat, n)
		var sel []int32
		if r.Intn(2) == 0 {
			sel = []int32{}
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		// Grouped (three groups) and global (nil group ids) folds onto
		// non-zero running states.
		gids := make([]int32, n)
		for i := range gids {
			gids[i] = int32(r.Intn(3))
		}
		for _, g := range [][]int32{gids, nil} {
			cnt, sumI, sumF := []int64{1, 2, 3}, []int64{10, 20, 30}, []float64{.5, 1.5, 2.5}
			fcnt, fsum := []int64{1, 2, 3}, []float64{.25, .5, .75}
			star, nn := []int64{0, 0, 0}, []int64{0, 0, 0}
			wc, wi, wf := slices.Clone(cnt), slices.Clone(sumI), slices.Clone(sumF)
			wfc, wfs := slices.Clone(fcnt), slices.Clone(fsum)
			wstar, wnn := []int64{0, 0, 0}, []int64{0, 0, 0}
			s := sel
			if s == nil {
				s = Iota(n)
			}
			for _, i := range s {
				k := 0
				if g != nil {
					k = int(g[i])
				}
				wstar[k]++
				if !iv.IsNull(int(i)) {
					wc[k]++
					wnn[k]++
					wi[k] += iv.Ints[i]
					wf[k] += float64(iv.Ints[i])
				}
				if !fv.IsNull(int(i)) {
					wfc[k]++
					wfs[k] += fv.Floats[i]
				}
			}
			AddInts(&iv, sel, n, g, cnt, sumI, sumF)
			AddFloats(&fv, sel, n, g, fcnt, fsum)
			AddCounts(nil, sel, n, g, star)
			AddCounts(&iv, sel, n, g, nn)
			if fmt.Sprint(cnt, sumI, sumF, fcnt, fsum, star, nn) != fmt.Sprint(wc, wi, wf, wfc, wfs, wstar, wnn) {
				t.Fatalf("trial %d grouped=%v: got %v %v %v %v %v %v %v, want %v %v %v %v %v %v %v", trial, g != nil,
					cnt, sumI, sumF, fcnt, fsum, star, nn, wc, wi, wf, wfc, wfs, wstar, wnn)
			}
		}
		// MinMax, unseeded and seeded with a running value.
		for _, isMin := range []bool{true, false} {
			for _, have := range []bool{false, true} {
				want, ok := int64(3), have
				s := sel
				if s == nil {
					s = Iota(n)
				}
				for _, i := range s {
					if x := iv.Ints[i]; !iv.IsNull(int(i)) && (!ok || (isMin && x < want) || (!isMin && x > want)) {
						want, ok = x, true
					}
				}
				if got, gotOK := MinMax(&iv, iv.Ints, sel, n, isMin, 3, have); gotOK != ok || (ok && got != want) {
					t.Fatalf("trial %d: MinMax(min=%v, seeded=%v) = %d,%v want %d,%v", trial, isMin, have, got, gotOK, want, ok)
				}
			}
		}
	}
}

// TestMinMaxFloatsNaN: a leading NaN is kept — no strict comparison
// replaces it — and a later NaN never replaces the running value,
// exactly what expr.Compare produces row by row; seeding the second
// batch with the first's result makes that independent of where the
// batch boundary falls.
func TestMinMaxFloatsNaN(t *testing.T) {
	nan := math.NaN()
	v := Vector{Type: expr.TFloat, Floats: []float64{nan, 2, 1}}
	if got, ok := MinMax(&v, v.Floats, nil, 3, true, 0, false); !ok || !math.IsNaN(got) {
		t.Errorf("min = %v, %v (want leading NaN kept)", got, ok)
	}
	v2 := Vector{Type: expr.TFloat, Floats: []float64{2, nan, 1}}
	if got, ok := MinMax(&v2, v2.Floats, nil, 3, true, 0, false); !ok || got != 1 {
		t.Errorf("min = %v, want 1 (NaN skipped after first)", got)
	}
	v3 := Vector{Type: expr.TFloat, Floats: []float64{nan, 1}}
	if got, _ := MinMax(&v3, v3.Floats, nil, 2, true, 2, true); got != 1 {
		t.Errorf("min seeded with 2 over [NaN 1] = %v, want 1", got)
	}
}

func TestBatchRowsAndNullVector(t *testing.T) {
	b := Batch{Len: 10}
	if b.Rows() != 10 {
		t.Errorf("Rows = %d", b.Rows())
	}
	b.Sel = []int32{1, 3}
	if b.Rows() != 2 {
		t.Errorf("Rows = %d", b.Rows())
	}
	nv := NullVector(expr.TBigInt)
	for i := 0; i < 4; i++ {
		if !nv.IsNull(i) || !nv.Value(i).Null {
			t.Errorf("row %d not NULL", i)
		}
	}
}

// TestScratchCountsDictShortcuts: =, LIKE and IN on a dictionary vector
// each count one code-space kernel into the scratch; a plain text
// vector counts none; TakeDictShortcuts returns the count and resets
// it.
func TestScratchCountsDictShortcuts(t *testing.T) {
	dict := Vector{Type: expr.TText, Dict: true, StrBytes: []byte("ab"), StrOff: []uint32{1, 2}, Codes8: []uint8{0, 1, 1, 0}}
	b := appendValues(expr.TText, []expr.Value{expr.TextValue("a"), expr.TextValue("b"), expr.TextValue("b"), expr.TextValue("a")})
	col := expr.NewCol(0, expr.TText)
	preds := []expr.Expr{
		expr.NewCmp(expr.EQ, col, expr.NewConst(expr.TextValue("b"))),
		expr.NewLike(col, "b%"),
		expr.NewIn(col, expr.TextValue("b"), expr.TextValue("c")),
	}
	var sc *Scratch
	if sc.TakeDictShortcuts() != 0 {
		t.Fatal("a nil scratch reports shortcuts")
	}
	for _, v := range []Vector{dict, *b} {
		for _, e := range preds {
			p, ok := Compile(e, 1)
			if !ok {
				t.Fatal("compile")
			}
			sc = p.Fit(sc)
			if got := p.Sel(&Batch{Cols: []Vector{v}, Len: 4}, sc); fmt.Sprint(got) != "[1 2]" {
				t.Fatalf("dict %v: %s selects %v, want [1 2]", v.Dict, e, got)
			}
		}
		want := int64(0)
		if v.Dict {
			want = int64(len(preds))
		}
		if got := sc.TakeDictShortcuts(); got != want {
			t.Fatalf("dict %v: %d shortcuts, want %d", v.Dict, got, want)
		}
	}
	if sc.TakeDictShortcuts() != 0 {
		t.Fatal("TakeDictShortcuts did not reset the count")
	}
}
