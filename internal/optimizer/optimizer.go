// Package optimizer implements cost-based join ordering over JSON
// relations (paper §4.6). Cardinalities come from the relation
// statistics JSON tiles maintain (path frequency counters +
// HyperLogLog distinct counts); formats without statistics fall back
// to textbook default selectivities — which is precisely how bad join
// orders happen on them, the effect the paper demonstrates with
// PostgreSQL on Q18.
//
// The algorithm is greedy operator ordering (GOO): repeatedly join the
// pair of connected components with the smallest estimated result,
// building the smaller side of each hash join. For the join-graph
// sizes of the evaluated queries (≤ 8 relations) GOO tracks the
// optimal order closely while staying linear-ish.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/storage"
)

// TableSpec declares one base relation of a query: its accesses
// (pushed-down JSON paths) and an optional filter over those slots.
type TableSpec struct {
	Alias    string
	Rel      storage.Relation
	Accesses []storage.Access
	Names    []string
	Filter   expr.Expr
}

// JoinSpec is one equi-join edge between two table aliases, naming a
// slot (access index) on each side.
type JoinSpec struct {
	LeftAlias  string
	LeftSlot   int
	RightAlias string
	RightSlot  int
}

// Query is the join-level query description; aggregation and ordering
// are applied by the caller on top of the planned operator.
type Query struct {
	Tables []TableSpec
	Joins  []JoinSpec
	// Instrument, when non-nil, wraps every scan and join the planner
	// constructs (the root package's queries install tracing operators
	// here on every run; callers that plan without tracing leave it
	// nil). label names the operator kind, detail describes it, and
	// est is the planner's cardinality estimate.
	Instrument func(op engine.Operator, label, detail string, est float64) engine.Operator
}

// SlotMap resolves (alias, table-local slot) to the output slot of the
// planned operator tree.
type SlotMap struct {
	offsets map[string]int
}

// Slot returns the output slot for the alias's local access index.
func (m *SlotMap) Slot(alias string, local int) int {
	off, ok := m.offsets[alias]
	if !ok {
		panic(fmt.Sprintf("optimizer: unknown alias %q", alias))
	}
	return off + local
}

// Col builds a column reference for the alias's local slot with the
// access's type.
func (m *SlotMap) ColFor(alias string, local int, t expr.SQLType) *expr.Col {
	return expr.NewCol(m.Slot(alias, local), t)
}

// component is a connected sub-plan during GOO.
type component struct {
	op      engine.Operator
	card    float64
	offsets map[string]int
	width   int
	scans   map[string]*engine.Scan // alias -> scan (null-rejection marking)
	specs   map[string]TableSpec
}

// Explain returns the join order Plan would choose, as a list of
// "alias ⋈ alias (est=N)" steps — visibility into the §4.6 statistics
// integration for tests and demos.
func Explain(q Query) ([]string, error) {
	var steps []string
	_, _, err := plan(q, func(a, b *component, est float64) {
		steps = append(steps, fmt.Sprintf("%s ⋈ %s (est=%.0f)", aliases(a), aliases(b), est))
	})
	return steps, err
}

func aliases(c *component) string {
	out := make([]string, 0, len(c.offsets))
	for a := range c.offsets {
		out = append(out, a)
	}
	sort.Strings(out)
	return strings.Join(out, "+")
}

// Plan orders the query's joins and returns the root operator and the
// slot map.
func Plan(q Query) (engine.Operator, *SlotMap, error) {
	return plan(q, nil)
}

func plan(q Query, trace func(a, b *component, est float64)) (engine.Operator, *SlotMap, error) {
	if len(q.Tables) == 0 {
		return nil, nil, fmt.Errorf("optimizer: no tables")
	}
	// Mark join-key slots null-rejecting before scans are constructed:
	// inner-join keys never match NULL, so a tile lacking the key path
	// can be skipped (§4.8).
	rejecting := map[string]map[int]bool{}
	for _, j := range q.Joins {
		if rejecting[j.LeftAlias] == nil {
			rejecting[j.LeftAlias] = map[int]bool{}
		}
		if rejecting[j.RightAlias] == nil {
			rejecting[j.RightAlias] = map[int]bool{}
		}
		rejecting[j.LeftAlias][j.LeftSlot] = true
		rejecting[j.RightAlias][j.RightSlot] = true
	}

	comps := map[string]*component{}
	for _, t := range q.Tables {
		scan := engine.NewScan(t.Rel, t.Accesses, t.Names, t.Filter)
		for slot := range rejecting[t.Alias] {
			scan.MarkNullRejecting(slot)
		}
		card := estimateBase(t)
		var op engine.Operator = scan
		if q.Instrument != nil {
			op = q.Instrument(scan, "Scan",
				fmt.Sprintf("%s %s", t.Alias, t.Rel.Name()), card)
		}
		comps[t.Alias] = &component{
			op:      op,
			card:    card,
			offsets: map[string]int{t.Alias: 0},
			width:   len(t.Accesses),
			scans:   map[string]*engine.Scan{t.Alias: scan},
			specs:   map[string]TableSpec{t.Alias: t},
		}
	}
	find := func(alias string) *component {
		for _, c := range comps {
			if _, ok := c.offsets[alias]; ok {
				return c
			}
		}
		return nil
	}

	edges := append([]JoinSpec(nil), q.Joins...)
	for len(comps) > 1 {
		// Choose the connected pair with the smallest estimated join
		// result; if the graph is disconnected, the smallest product.
		type choice struct {
			a, b    *component
			keys    []JoinSpec
			estCard float64
		}
		var best *choice
		for _, e := range edges {
			ca, cb := find(e.LeftAlias), find(e.RightAlias)
			if ca == nil || cb == nil || ca == cb {
				continue
			}
			keys := connectingEdges(edges, ca, cb)
			est := estimateJoin(ca, cb, keys, q)
			if best == nil || est < best.estCard {
				best = &choice{a: ca, b: cb, keys: keys, estCard: est}
			}
		}
		if best == nil {
			// Cross product: pick the two smallest components.
			var a, b *component
			for _, c := range comps {
				switch {
				case a == nil || c.card < a.card:
					a, b = c, a
				case b == nil || c.card < b.card:
					b = c
				}
			}
			best = &choice{a: a, b: b, estCard: a.card * b.card}
		}
		if trace != nil {
			trace(best.a, best.b, best.estCard)
		}
		merged := joinComponents(best.a, best.b, best.keys)
		merged.card = best.estCard
		if q.Instrument != nil {
			merged.op = q.Instrument(merged.op, "HashJoin",
				fmt.Sprintf("%s ⋈ %s", aliases(best.a), aliases(best.b)), best.estCard)
		}
		// Replace the two inputs with the merged component.
		for alias := range comps {
			if comps[alias] == best.a || comps[alias] == best.b {
				delete(comps, alias)
			}
		}
		var anchor string
		for a := range merged.offsets {
			anchor = a
			break
		}
		comps[anchor] = merged
	}
	var root *component
	for _, c := range comps {
		root = c
	}
	return root.op, &SlotMap{offsets: root.offsets}, nil
}

// connectingEdges returns every join edge between the two components
// (composite join keys).
func connectingEdges(edges []JoinSpec, a, b *component) []JoinSpec {
	var out []JoinSpec
	for _, e := range edges {
		_, la := a.offsets[e.LeftAlias]
		_, ra := a.offsets[e.RightAlias]
		_, lb := b.offsets[e.LeftAlias]
		_, rb := b.offsets[e.RightAlias]
		if (la && rb) || (ra && lb) {
			out = append(out, e)
		}
	}
	return out
}

// joinComponents builds the hash join: the smaller side becomes the
// build input.
func joinComponents(a, b *component, keys []JoinSpec) *component {
	build, probe := a, b
	if b.card < a.card {
		build, probe = b, a
	}
	var buildKeys, probeKeys []int
	for _, e := range keys {
		if _, onBuild := build.offsets[e.LeftAlias]; onBuild {
			buildKeys = append(buildKeys, build.offsets[e.LeftAlias]+e.LeftSlot)
			probeKeys = append(probeKeys, probe.offsets[e.RightAlias]+e.RightSlot)
		} else {
			buildKeys = append(buildKeys, build.offsets[e.RightAlias]+e.RightSlot)
			probeKeys = append(probeKeys, probe.offsets[e.LeftAlias]+e.LeftSlot)
		}
	}
	join := engine.NewHashJoin(build.op, probe.op, buildKeys, probeKeys, engine.InnerJoin)
	// Output layout: probe columns first, then build columns.
	offsets := map[string]int{}
	for alias, off := range probe.offsets {
		offsets[alias] = off
	}
	for alias, off := range build.offsets {
		offsets[alias] = probe.width + off
	}
	scans := map[string]*engine.Scan{}
	specs := map[string]TableSpec{}
	for m, src := range map[*component]bool{a: true, b: true} {
		_ = src
		for k, v := range m.scans {
			scans[k] = v
		}
		for k, v := range m.specs {
			specs[k] = v
		}
	}
	return &component{
		op:      join,
		offsets: offsets,
		width:   probe.width + build.width,
		scans:   scans,
		specs:   specs,
	}
}

// estimateBase estimates a filtered table's cardinality.
func estimateBase(t TableSpec) float64 {
	rows := float64(t.Rel.NumRows())
	if t.Filter == nil {
		return rows
	}
	return rows * estimateSelectivity(t.Filter, t, t.Rel.Stats())
}

// estimateSelectivity walks a predicate and combines per-atom
// estimates. With statistics, equality uses 1/distinct and presence
// uses the frequency counters; without, System-R style defaults.
func estimateSelectivity(e expr.Expr, t TableSpec, st *stats.TableStats) float64 {
	switch x := e.(type) {
	case *expr.And:
		return estimateSelectivity(x.L, t, st) * estimateSelectivity(x.R, t, st)
	case *expr.Or:
		s := estimateSelectivity(x.L, t, st) + estimateSelectivity(x.R, t, st)
		if s > 1 {
			s = 1
		}
		return s
	case *expr.Not:
		return 1 - estimateSelectivity(x.E, t, st)
	case *expr.Cmp:
		path := slotPath(x.L, t)
		constSide := x.R
		if path == "" {
			path = slotPath(x.R, t)
			constSide = x.L
		}
		if x.Op == expr.EQ {
			if st != nil && path != "" {
				return st.SelEquality(path)
			}
			return 0.05
		}
		if st != nil && path != "" {
			// Histogram-backed range estimate when the other side is a
			// numeric constant.
			if c, ok := constSide.(*expr.Const); ok {
				if xv, isNum := c.V.AsFloat(); isNum {
					switch x.Op {
					case expr.LT, expr.LE:
						return st.SelLess(path, xv)
					case expr.GT, expr.GE:
						return st.SelGreater(path, xv)
					}
				}
			}
			return st.SelRange(path)
		}
		return 1.0 / 3
	case *expr.Like:
		return 0.1
	case *expr.In:
		base := 0.05
		if st != nil {
			if path := slotPath(x.E, t); path != "" {
				base = st.SelEquality(path)
			}
		}
		s := base * float64(len(x.List))
		if s > 1 {
			s = 1
		}
		return s
	case *expr.IsNull:
		if st != nil {
			for slot := range expr.AllSlots(x.E) {
				if slot < len(t.Accesses) {
					nn := st.SelNotNull(t.Accesses[slot].PathEnc)
					if x.Negate {
						return nn
					}
					return 1 - nn
				}
			}
		}
		if x.Negate {
			return 0.9
		}
		return 0.1
	default:
		return 0.25
	}
}

// slotPath maps a column-reference expression (possibly wrapped in
// casts/arithmetic) back to its access path.
func slotPath(e expr.Expr, t TableSpec) string {
	for slot := range expr.AllSlots(e) {
		if slot >= 0 && slot < len(t.Accesses) {
			return t.Accesses[slot].PathEnc
		}
	}
	return ""
}

// estimateJoin estimates |A ⋈ B| over the connecting keys.
func estimateJoin(a, b *component, keys []JoinSpec, q Query) float64 {
	if len(keys) == 0 {
		return a.card * b.card
	}
	sel := 1.0
	for _, e := range keys {
		dl := distinctOf(a, b, e.LeftAlias, e.LeftSlot)
		dr := distinctOf(a, b, e.RightAlias, e.RightSlot)
		d := math.Max(dl, dr)
		if d < 1 {
			d = 1
		}
		sel /= d
	}
	est := a.card * b.card * sel
	if est < 1 {
		est = 1
	}
	return est
}

func distinctOf(a, b *component, alias string, slot int) float64 {
	for _, c := range []*component{a, b} {
		if spec, ok := c.specs[alias]; ok {
			if st := spec.Rel.Stats(); st != nil && slot < len(spec.Accesses) {
				return st.DistinctCount(spec.Accesses[slot].PathEnc)
			}
			// No statistics: assume the join key is unique on this
			// side (the default that goes wrong on skewed keys).
			return c.card
		}
	}
	return 1
}
