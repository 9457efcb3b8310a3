package storage

import (
	"math"

	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/tile"
	"repro/internal/vec"
)

// LoaderConfig parameterizes format construction.
type LoaderConfig struct {
	// Tile holds the JSON tiles extraction settings (also reused for
	// array-slot bounds by Sinew and Shredded so path spaces match).
	Tile tile.Config
	// Reorder enables partition reordering for the Tiles format.
	Reorder bool
	// SkipTiles enables tile skipping (§4.8); the fig14 "no Skip"
	// ablation turns it off.
	SkipTiles bool
	// Metrics, when non-nil, accumulates the load-time breakdown
	// (parse/mine/extract/JSONB/reorder nanos — Figure 16) across every
	// Tiles build performed with this config; it is the one route for
	// a build's metrics.
	Metrics *tile.Metrics
}

// DefaultLoaderConfig mirrors the paper's evaluation defaults.
func DefaultLoaderConfig() LoaderConfig {
	return LoaderConfig{
		Tile:      tile.DefaultConfig(),
		Reorder:   true,
		SkipTiles: true,
	}
}

// castJSON converts one JSON value to want. It is the one meaning of
// ->>'p'::T, in every format and whether a column or a document serves
// the cell; DESIGN.md §5 tabulates it and TestCastsAgreeAcrossFormats
// pins it. v is the non-NULL value as JSON holds it: BigInt or Float
// for a number, Text for a string, Bool for a boolean, Text holding its
// JSON text for an object or array, and Timestamp for a cell of a
// timestamp column, which only ::Timestamp reads. Where want has a
// value for v, it is expr.CastValue's; otherwise the cell is NULL and
// counts as a cast error.
func castJSON(v expr.Value, want expr.SQLType, cnt *scanCounters) expr.Value {
	if v.Typ == want {
		return v
	}
	var ok bool
	switch want {
	case expr.TText:
		ok = v.Typ != expr.TTimestamp
	case expr.TBigInt:
		ok = v.Typ == expr.TFloat || v.Typ == expr.TBool || v.Typ == expr.TText
	case expr.TFloat:
		ok = v.Typ == expr.TBigInt || v.Typ == expr.TText
	case expr.TBool, expr.TTimestamp:
		ok = v.Typ == expr.TText
	}
	out := expr.NullValue()
	if ok {
		out = expr.CastValue(v, want)
	}
	if out.Null {
		cnt.CastErrors++
	}
	return out
}

// docRows is a tile's documents as one access reads them: each row's
// whole document for a path that starts at the root or with a slot, else
// the part holding its first key (scanTile.Members), resolved at the
// first row that reads it, so a tile no row of which reads it loads none.
type docRows struct {
	rows  [][]byte // nil until resolved
	whole bool
}

// member reads row i's value under key; false when the row lacks it.
func (d *docRows) member(t scanTile, i int, key string) (jsonb.Doc, bool) {
	if d.rows == nil {
		d.rows, d.whole = t.Members(key)
	}
	if d.whole {
		return jsonb.NewDoc(d.rows[i]).Get(key)
	}
	return jsonb.NewDoc(d.rows[i]), len(d.rows[i]) > 0
}

// lookup follows path down row i's document; false when a step is
// absent.
func (d *docRows) lookup(t scanTile, i int, path []keypath.Segment) (jsonb.Doc, bool) {
	if len(path) == 0 || path[0].IsIndex {
		return docLookup(t.Raw(i), path)
	}
	if cur, ok := d.member(t, i, path[0].Key); ok {
		return docLookup(cur, path[1:])
	}
	return jsonb.Doc{}, false
}

// docLookup follows path down from d; false when a step is absent.
func docLookup(d jsonb.Doc, path []keypath.Segment) (jsonb.Doc, bool) {
	for _, seg := range path {
		var ok bool
		if d, ok = docStep(d, seg); !ok {
			return d, false
		}
	}
	return d, true
}

// docStep follows one path step: an object's key, or an array's slot.
// It fails on a value of the other kind, JSON null included.
func docStep(d jsonb.Doc, seg keypath.Segment) (jsonb.Doc, bool) {
	if seg.IsIndex {
		return d.Index(seg.Index)
	}
	return d.Get(seg.Key)
}

// docPut writes the value a path reached, read as want, into row i of
// w: docValue's cell without boxing it. A number, a boolean or a plain
// string read as its own type goes straight in, the string's bytes
// copied from the document; any other value converts through docValue.
func docPut(w *vec.Buf, i int, cur jsonb.Doc, want expr.SQLType, cnt *scanCounters) {
	switch want {
	case expr.TBigInt:
		if x, ok := cur.Int64(); ok {
			w.Int(i, x)
			return
		}
	case expr.TFloat:
		if x, ok := cur.Float64(); ok {
			w.Float(i, x)
			return
		}
	case expr.TBool:
		if x, ok := cur.Bool(); ok {
			w.Bool(i, x)
			return
		}
	case expr.TText:
		if s, ok := cur.StringBytes(); ok {
			w.Text(i, s)
			return
		}
	}
	w.Value(i, docValue(cur, want, cnt))
}

// docValue reads the value a path reached as want.
func docValue(cur jsonb.Doc, want expr.SQLType, cnt *scanCounters) expr.Value {
	switch {
	case cur.IsNull():
		return expr.NullValue()
	case want == expr.TJSON:
		return expr.JSONValue(cur)
	}
	var v expr.Value
	switch cur.Kind() {
	case jsonb.KindInt:
		i, _ := cur.Int64()
		v = expr.IntValue(i)
	case jsonb.KindFloat:
		f, _ := cur.Float64()
		v = expr.FloatValue(f)
	case jsonb.KindBool:
		b, _ := cur.Bool()
		v = expr.BoolValue(b)
	case jsonb.KindString:
		// A numeric string's typed payload casts without a parse, to the
		// value parsing its text gives. For ::Float both operands are
		// exact, so the one division rounds the decimal as parsing does;
		// dividing by 10 once per digit rounds at every step.
		if m, sc, ok := cur.NumericString(); ok {
			switch {
			case want == expr.TBigInt && sc == 0:
				return expr.IntValue(m)
			case want == expr.TFloat && sc <= 22 && m > -1<<53 && m < 1<<53:
				return expr.FloatValue(float64(m) / math.Pow10(int(sc)))
			}
		}
		s, _ := cur.String()
		v = expr.TextValue(s)
	default:
		v = expr.TextValue(cur.AsText())
	}
	return castJSON(v, want, cnt)
}

// treeAccess reads path from a parsed value tree as want — the typed
// access expressions of §4.5/§5.4 in raw JSON's read, the oracle every
// conformance test compares with.
func treeAccess(doc jsonvalue.Value, path keypath.Path, want expr.SQLType, cnt *scanCounters) expr.Value {
	v, ok := keypath.Lookup(doc, path)
	if !ok {
		return expr.NullValue()
	}
	return treeValue(v, want, cnt)
}

// treeValue reads one value of a parsed tree as want.
func treeValue(v jsonvalue.Value, want expr.SQLType, cnt *scanCounters) expr.Value {
	switch {
	case v.IsNull():
		return expr.NullValue()
	case want == expr.TJSON:
		// The tree has no binary form; encode on demand (this is exactly
		// the cost the raw format pays in the paper).
		return expr.JSONValue(jsonb.NewDoc(jsonb.Encode(v)))
	}
	var nat expr.Value
	switch v.Kind() {
	case jsonvalue.KindInt:
		nat = expr.IntValue(v.IntVal())
	case jsonvalue.KindFloat:
		nat = expr.FloatValue(v.FloatVal())
	case jsonvalue.KindBool:
		nat = expr.BoolValue(v.BoolVal())
	case jsonvalue.KindString:
		nat = expr.TextValue(v.StringVal())
	default:
		nat = expr.TextValue(jsontext.SerializeString(v)) // raw JSON keeps input key order
	}
	return castJSON(nat, want, cnt)
}
