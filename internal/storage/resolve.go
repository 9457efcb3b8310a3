package storage

import (
	"repro/internal/column"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/vec"
)

// Access planning (§4.5): how a tile serves an access is decided once
// per tile from its metadata alone, before any block is read, and
// reused for every row. The scan core fills from the plan, the fetch
// window fetches exactly the blocks it names, and Sinew plans against
// its global schema as against one tile.

// serveKind is where an access's values come from on one tile.
type serveKind uint8

const (
	// serveNull: the tile provably lacks the path; every row is NULL
	// and no block is read.
	serveNull serveKind = iota
	// serveZero: the column's own vector, zero-copy.
	serveZero
	// serveWiden: a BigInt column read as ::Float, widened into a typed
	// vector.
	serveWiden
	// serveCast: the column, cell by cell through castJSON.
	serveCast
	// serveDoc: every row reads its binary JSON document.
	serveDoc
)

// accessPlan is how one tile serves one access.
type accessPlan struct {
	serve serveKind
	col   int // the serving column, for serveZero, serveWiden and serveCast
	// docOnNull (serveCast only): a NULL in the column may stand for a
	// value the column could not hold — a type outlier, or a row another
	// column of the path holds — so a NULL row reads the document.
	docOnNull bool
}

// vector reports whether the plan fills a typed or all-NULL vector
// without a per-row step.
func (p accessPlan) vector() bool { return p.serve <= serveWiden }

// readsColumn and readsDocs name the blocks the plan may read: the
// column's, and the part of the documents holding the access's first
// key (docParts).
func (p accessPlan) readsColumn() bool { return p.serve >= serveZero && p.serve <= serveCast }
func (p accessPlan) readsDocs() bool   { return p.serve == serveDoc || p.docOnNull }

// headerPath is the path tile headers answer for about one access: its
// own, or, for a path that indexes an array slot at or beyond the
// collection cap (capped), the prefix naming the array itself. A capped
// path can occur in documents while no header lists it and no column
// holds it, so only its prefix's absence proves anything.
type headerPath struct {
	enc    string
	capped bool
}

// headerPaths computes each access's header path, once per scan.
func headerPaths(accesses []Access, maxSlots int) []headerPath {
	hs := make([]headerPath, len(accesses))
	for ai, a := range accesses {
		hs[ai] = headerPath{enc: a.PathEnc}
		for i, seg := range a.Path.Segs {
			if seg.IsIndex && seg.Index >= maxSlots {
				hs[ai] = headerPath{enc: keypath.Path{Segs: a.Path.Segs[:i]}.Encode(), capped: true}
				break
			}
		}
	}
	return hs
}

// planAccess decides how tile t serves access a, whose header path is
// h. A column serves every type but ::JSON, except that a timestamp
// column serves only ::Timestamp: the original text of a date is in the
// document alone (§4.9). Of several columns for the path the first that
// serves is taken, and its NULLs divert to the document, where the rows
// another column holds are. It reads tile metadata only: which columns
// hold the path, their storage types and outlier flags, and whether the
// path may occur at all. The root access (data) reads the document.
func planAccess(t scanTile, a Access, h headerPath) accessPlan {
	if len(a.Path.Segs) == 0 {
		return accessPlan{serve: serveDoc} // the root: every row has one
	}
	var cols []int
	if !h.capped && a.Type != expr.TJSON {
		cols = t.ColumnsForPath(a.PathEnc)
	}
	for _, ci := range cols {
		storage, outliers := t.ColumnType(ci)
		if storage == keypath.TypeTimestamp && a.Type != expr.TTimestamp {
			continue
		}
		p := accessPlan{serve: serveCast, col: ci, docOnNull: outliers || len(cols) > 1}
		switch {
		case p.docOnNull:
		case column.SQLType(storage) == a.Type:
			p.serve = serveZero
		case storage == keypath.TypeBigInt && a.Type == expr.TFloat:
			p.serve = serveWiden
		}
		return p
	}
	if !t.MayContainPath(h.enc) {
		return accessPlan{serve: serveNull}
	}
	return accessPlan{serve: serveDoc}
}

// put writes row i of access a under plan p, where col is the cells of
// the plan's column, loaded (nil when the plan reads none), and docs
// tile t's documents as a reads them, as row k of w. A text column read
// as text copies its bytes; any other column cell converts through
// castJSON, and a document cell through docPut.
func (p accessPlan) put(w *vec.Buf, k int, t scanTile, docs *docRows, col *vec.Vector, i int, a Access, cnt *scanCounters) {
	switch {
	case p.serve == serveNull:
		return
	case p.serve == serveDoc, p.docOnNull && col.IsNull(i):
		cnt.JSONBFallbacks++
		if cur, ok := docs.lookup(t, i, a.Path.Segs); ok {
			docPut(w, k, cur, a.Type, cnt)
		}
		return
	}
	cnt.ColumnHits++
	switch {
	case col.IsNull(i):
	case col.Type == expr.TText && a.Type == expr.TText:
		w.Text(k, col.StrAt(i))
	default:
		w.Value(k, castJSON(col.Value(i), a.Type, cnt))
	}
}
