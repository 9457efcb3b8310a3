package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsongen"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/storage"
)

// FuzzConjunctNarrowing draws filters of one to four conjuncts, each
// reading one access (IS [NOT] NULL, comparisons, IN, LIKE, NOT, OR
// within the slot) and now and then one reading two, over random
// documents, and compares the scan of every conformanceKinds format,
// which narrows on the one-slot conjuncts, with a Select over an
// unfiltered scan of raw JSON. `go test` runs the seeds;
// `go test -run '^$' -fuzz FuzzConjunctNarrowing ./internal/engine`
// digs.
func FuzzConjunctNarrowing(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		lines, docs := fuzzDocs(r, 24+r.Intn(100))
		accs := fuzzAccesses(r, docs)
		jsonRel := loadKind(t, storage.KindJSON, lines)

		// Constants come from the values each access takes, so that
		// comparisons and IN lists select some rows and not others.
		seen := make([][]expr.Value, len(accs))
		for _, row := range Materialize(NewScan(jsonRel, accs, nil, nil), 1).Rows {
			for s, v := range row {
				if !v.Null && accs[s].Type != expr.TJSON {
					seen[s] = append(seen[s], v)
				}
			}
		}
		g := conjunctGen{r: r, accs: accs, seen: seen}
		var filter expr.Expr
		for range 1 + int(shape%4) {
			filter = and(filter, g.conjunct())
		}

		want := rowMultiset(Materialize(reference(jsonRel, accs, filter), 1))
		for _, kind := range conformanceKinds {
			rel := loadKind(t, kind, lines)
			for _, workers := range []int{1, 3} {
				if got := rowMultiset(Materialize(NewScan(rel, accs, nil, filter), workers)); !sameRows(got, want) {
					t.Fatalf("seed %d, %s, %d workers, filter %s: %d rows, %d over raw JSON\n got: %q\nwant: %q",
						seed, kind, workers, exprString(filter), len(got), len(want), got, want)
				}
			}
		}
	})
}

// fuzzDocs generates random objects, most of which also carry a few
// fields of stable type, so that tiles extract columns for some paths
// and serve the rest from binary JSON, among them an array hs of 0 to
// 11 objects, longer than the slot cap now and then.
func fuzzDocs(r *rand.Rand, n int) ([][]byte, []jsonvalue.Value) {
	cats := []string{"red", "green", "blue", "great food", "great"}
	lines := make([][]byte, n)
	docs := make([]jsonvalue.Value, n)
	for i := range lines {
		body := jsontext.Serialize(jsongen.RandomObject(r, 3))
		var extra []string
		if r.Intn(5) != 0 {
			// About one document in 20 holds n in a one-member container.
			f := `"n":%d`
			switch r.Intn(32) {
			case 0:
				f = `"n":[%d]`
			case 1:
				f = `"n":{"k":%d}`
			}
			extra = append(extra, fmt.Sprintf(f, r.Intn(20)-5))
		}
		if r.Intn(3) != 0 {
			extra = append(extra, fmt.Sprintf(`"ts":"2021-%02d-%02d 08:30:00"`, 1+r.Intn(12), 1+r.Intn(28)))
		}
		if r.Intn(4) != 0 {
			extra = append(extra, fmt.Sprintf(`"cat":%q`, cats[r.Intn(len(cats))]))
		}
		if r.Intn(3) != 0 {
			hs := make([]string, r.Intn(4))
			if r.Intn(6) == 0 {
				hs = make([]string, 4+r.Intn(8))
			}
			for j := range hs {
				hs[j] = fmt.Sprintf(`{"v":%q,"n":%d}`, cats[r.Intn(len(cats))], r.Intn(5))
			}
			extra = append(extra, `"hs":[`+joinFields(hs)+`]`)
		}
		if len(extra) > 0 {
			sep := ","
			if bytes.Equal(body, []byte("{}")) {
				sep = ""
			}
			body = []byte("{" + joinFields(extra) + sep + string(body[1:]))
		}
		v, err := jsontext.Parse(body)
		if err != nil {
			panic(err)
		}
		lines[i], docs[i] = body, v
	}
	return lines, docs
}

func joinFields(fs []string) string {
	if len(fs) == 0 {
		return ""
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out += "," + f
	}
	return out
}

// fuzzAccesses reads the stable fields under several types — "n" as
// BigInt, Float, Bool and Text, "cat" as Text, Float and BigInt (NULL
// but for the cast), "ts" as Timestamp and as Text, which takes the
// document where a tile mined it as a timestamp (§4.9) — plus up to
// three paths of the random part at the type first seen there, and four
// slots of hs, past the slot cap now and then, whose paths share the
// prefix hs (the scan core reads those a tile serves from documents in
// one walk per row). A path
// is read as text only where no document holds a container: raw JSON
// renders a container's keys in input order and binary JSON sorted, so
// comparing that text with a constant tells the formats apart, not the
// scans. The text of a number is the same in both, and so is that of
// the one-member container fuzzDocs puts at "n" now and then: where a
// format extracts "n", those rows must come from the document.
func fuzzAccesses(r *rand.Rand, docs []jsonvalue.Value) []storage.Access {
	accs := []storage.Access{
		storage.NewAccess(expr.TBigInt, "n"),
		storage.NewAccess(expr.TFloat, "n"),
		storage.NewAccess(expr.TBool, "n"),
		storage.NewAccess(expr.TText, "n"),
		storage.NewAccess(expr.TText, "ts"),
		storage.NewAccess(expr.TTimestamp, "ts"),
		storage.NewAccess(expr.TText, "cat"),
		storage.NewAccess(expr.TFloat, "cat"),
		storage.NewAccess(expr.TBigInt, "cat"),
	}
	noContainers := func(p keypath.Path) bool {
		for _, d := range docs {
			if v, ok := keypath.Lookup(d, p); ok && (v.Kind() == jsonvalue.KindObject || v.Kind() == jsonvalue.KindArray) {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{"n": true, "ts": true, "cat": true}
	for _, d := range docs[:min(len(docs), 4+r.Intn(8))] {
		keypath.Collect(d, 4, func(p keypath.Path, vt keypath.ValueType, _ jsonvalue.Value) {
			// hs comes first in each document and is read by the slot
			// loop below; skipping it here keeps the three accesses for
			// the random part.
			if len(p.Segs) > 0 && p.Segs[0].Key == "hs" {
				return
			}
			enc := p.Encode()
			if seen[enc] || len(accs) >= 12 {
				return
			}
			seen[enc] = true
			var st expr.SQLType
			switch vt {
			case keypath.TypeBigInt:
				st = expr.TBigInt
			case keypath.TypeDouble:
				st = expr.TFloat
			case keypath.TypeBool:
				st = expr.TBool
			case keypath.TypeString:
				if !noContainers(p) {
					return
				}
				st = expr.TText
			default:
				return
			}
			accs = append(accs, storage.NewAccessPath(st, p))
		})
	}
	for range 4 {
		p := keypath.NewPath("hs").Slot(r.Intn(12))
		if r.Intn(2) == 0 {
			accs = append(accs, storage.NewAccessPath(expr.TText, p.Child("v")))
		} else {
			accs = append(accs, storage.NewAccessPath(expr.TBigInt, p.Child("n")))
		}
	}
	return accs
}

// conjunctGen draws predicates over the accesses.
type conjunctGen struct {
	r    *rand.Rand
	accs []storage.Access
	seen [][]expr.Value
}

// conjunct returns a predicate over one random slot, or, one time in
// six, an OR over two.
func (g *conjunctGen) conjunct() expr.Expr {
	s := g.r.Intn(len(g.accs))
	if g.r.Intn(6) == 0 {
		return expr.NewOr(g.pred(s, 1), g.pred(g.r.Intn(len(g.accs)), 1))
	}
	return g.pred(s, 2)
}

// pred returns a predicate over slot s, nesting NOT and OR up to depth.
func (g *conjunctGen) pred(s, depth int) expr.Expr {
	c := expr.NewCol(s, g.accs[s].Type)
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	switch k := g.r.Intn(8); {
	case k == 0:
		return expr.NewIsNull(c, g.r.Intn(2) == 0)
	case k <= 2:
		return expr.NewCmp(ops[g.r.Intn(len(ops))], c, expr.NewConst(g.constant(s)))
	case k == 3:
		return expr.NewIn(c, g.constant(s), g.constant(s), g.constant(s))
	case k == 4:
		return expr.NewLike(c, g.pattern(s))
	case k == 5 && depth > 0:
		return expr.NewNot(g.pred(s, depth-1))
	case k == 6 && depth > 0:
		return expr.NewOr(g.pred(s, depth-1), g.pred(s, depth-1))
	}
	return expr.NewIsNull(c, true)
}

// constant is mostly a value slot s takes, else one of another type.
func (g *conjunctGen) constant(s int) expr.Value {
	if vals := g.seen[s]; len(vals) > 0 && g.r.Intn(5) != 0 {
		return vals[g.r.Intn(len(vals))]
	}
	others := []expr.Value{expr.IntValue(int64(g.r.Intn(10))), expr.FloatValue(g.r.Float64() * 10),
		expr.TextValue("red"), expr.BoolValue(g.r.Intn(2) == 0), expr.NullValue()}
	return others[g.r.Intn(len(others))]
}

// pattern is a prefix, suffix, containment or exact LIKE pattern cut
// from a text value slot s takes.
func (g *conjunctGen) pattern(s int) string {
	text := "gre"
	if vals := g.seen[s]; len(vals) > 0 {
		text = vals[g.r.Intn(len(vals))].String()
	}
	cut := text[:g.r.Intn(len(text)+1)]
	switch g.r.Intn(4) {
	case 0:
		return cut + "%"
	case 1:
		return "%" + text[len(cut):]
	case 2:
		return "%" + cut + "%"
	}
	return text
}

// exprString renders a predicate for failure messages.
func exprString(e expr.Expr) string {
	switch x := e.(type) {
	case *expr.And:
		return "(" + exprString(x.L) + " AND " + exprString(x.R) + ")"
	case *expr.Or:
		return "(" + exprString(x.L) + " OR " + exprString(x.R) + ")"
	case *expr.Not:
		return "NOT " + exprString(x.E)
	case *expr.IsNull:
		if x.Negate {
			return exprString(x.E) + " IS NOT NULL"
		}
		return exprString(x.E) + " IS NULL"
	case *expr.Cmp:
		return exprString(x.L) + fmt.Sprintf(" op%d ", x.Op) + exprString(x.R)
	case *expr.In:
		return fmt.Sprintf("%s IN %v", exprString(x.E), x.List)
	case *expr.Like:
		return fmt.Sprintf("%s LIKE %q", exprString(x.E), x.Pattern)
	case *expr.Col:
		return fmt.Sprintf("$%d", x.Idx)
	case *expr.Const:
		return fmt.Sprintf("%q", x.V.String())
	}
	return fmt.Sprintf("%T", e)
}
