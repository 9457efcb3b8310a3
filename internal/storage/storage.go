// Package storage implements the competing storage formats of the
// paper's evaluation behind one Relation interface, all sharing the
// same engine and expression layer so that — exactly as in the paper's
// internal comparison — measured differences isolate the storage
// design. Every format hands the engine column batches through the one
// scan, ScanBatches:
//
//	JSON      raw text, full parse per tuple access        (§6 "JSON")
//	JSONB     per-document binary JSON (§5)                (§6 "JSONB")
//	Sinew     global single-schema column extraction [57]  (§6 "Sinew")
//	Tiles     JSON tiles (this paper)                      (§6 "Tiles")
//	Shredded  Dremel-style full shredding with definition
//	          levels — the Parquet stand-in               (§6 "Spark/Parquet")
//
// Tiles-* (§6.3, TilesStar) is not a Relation of its own: it is a Tiles
// relation plus one Tiles relation per high-cardinality array, joined
// back by the query.
package storage

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/vec"
)

// Access is one pushed-down JSON access expression (§4.2): the scan
// operator receives the key path and — after cast rewriting (§4.3) —
// the result type the query actually wants, so the storage format can
// serve it from the best representation it has.
type Access struct {
	// Path is the parsed key path.
	Path keypath.Path
	// PathEnc is Path.Encode(), cached.
	PathEnc string
	// Type is the desired result type. TJSON corresponds to the ->
	// operator, TText to ->> without a cast, anything else to a
	// rewritten cast (e.g. ->>'x'::BigInt).
	Type expr.SQLType
	// NullRejecting marks accesses whose NULL makes the row's
	// predicate not-TRUE; a tile guaranteed to lack the path can then
	// be skipped wholesale (§4.8). The promise holds per row too: any
	// scan may omit a row whose flagged access is NULL.
	NullRejecting bool
	// Filter, when non-nil, is a predicate that reads this access alone,
	// as column i of the scan's row where i is the access's position in
	// the list: the scan filter's conjuncts on that one slot. Every scan
	// applies it before it emits a row: it emits only rows for which
	// every access's Filter is TRUE.
	Filter expr.Expr
}

// NewAccess builds an access from dotted segments.
func NewAccess(t expr.SQLType, segs ...string) Access {
	p := keypath.NewPath(segs...)
	return Access{Path: p, PathEnc: p.Encode(), Type: t}
}

// NewAccessPath builds an access from a parsed path.
func NewAccessPath(t expr.SQLType, p keypath.Path) Access {
	return Access{Path: p, PathEnc: p.Encode(), Type: t}
}

// Relation is a stored JSON collection in some format.
type Relation interface {
	// Name identifies the relation (diagnostics).
	Name() string
	// NumRows is the tuple count.
	NumRows() int
	// BatchScanner evaluates the access expressions for every tuple.
	BatchScanner
	// SizeBytes is the storage footprint.
	SizeBytes() int
	// Stats returns relation statistics, or nil when the format keeps
	// none (every format except Tiles, matching the paper).
	Stats() *stats.TableStats
}

// BatchEmitFunc receives batch-scan output. Implementations may call
// it from `workers` goroutines concurrently; the batch and its
// vectors are reused between calls and must not be retained.
type BatchEmitFunc func(worker int, b *vec.Batch)

// BatchScanner is the scan of every Relation: it emits column batches
// (typed vectors + selection vector) of every access's values, stops at
// the next morsel claim once ctx is cancelled, and records per-scan
// counters (tiles scanned/skipped, rows, column hits vs binary-JSON
// fallbacks) into st when non-nil. Accesses a tile serves from a
// materialized column are handed out as zero-copy slices; everything
// else is materialized into boxed vectors, so batch scans are always
// complete (never a subset of the accesses). A scan applies every
// access's Filter before it emits a row.
type BatchScanner interface {
	ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats)
}

// StatsScanner is a row scan: one row of access values per tuple.
// Only DirTable implements it, for benchmark/wrap.go, whose traced
// relation wrapper requires it; no product code calls it.
type StatsScanner interface {
	ScanWithStats(ctx context.Context, accesses []Access, workers int, emit EmitFunc, st *obs.ScanStats)
}

// EmitFunc receives row-scan output (StatsScanner). Implementations may
// call it from `workers` goroutines concurrently, identified by worker
// id; the row slice is reused between calls and must not be retained.
type EmitFunc func(worker int, row []expr.Value)

// TileCounter is implemented by relations that know their tile count
// without materializing tiles — EXPLAIN ANALYZE uses it for the skip
// denominator. Disk-backed relations answer from the footer; the
// in-memory relation from its tile slice.
type TileCounter interface {
	NumTiles() int
}

// TileIntrospector is implemented by tile-backed relations and exposes
// the physical layout for statistics and diagnostics (Table 6 size
// accounting, per-tile extracted paths, tile counts for skip ratios).
type TileIntrospector interface {
	// Tiles returns the materialized tiles in row order.
	Tiles() []*tile.Tile
	// RawSizeBytes is the per-document binary JSON footprint.
	RawSizeBytes() int
	// ColumnSizeBytes is the extracted-column overhead ("+Tiles").
	ColumnSizeBytes() int
	// CompressedColumnSizeBytes is the LZ4-compressed column size
	// ("+LZ4-Tiles").
	CompressedColumnSizeBytes() int
}

// FormatKind names a storage format for the benchmark harness.
type FormatKind string

// The format kinds.
const (
	KindJSON     FormatKind = "JSON"
	KindJSONB    FormatKind = "JSONB"
	KindSinew    FormatKind = "Sinew"
	KindTiles    FormatKind = "Tiles"
	KindShredded FormatKind = "Shredded"
)

// Loader builds a Relation of a given format from raw JSON documents.
type Loader interface {
	// Load parses and ingests the documents using up to `workers`
	// goroutines, returning the finished relation.
	Load(name string, lines [][]byte, workers int) (Relation, error)
}

// NewLoader returns the loader for a format kind with the given tile
// configuration (ignored by formats without tiles).
func NewLoader(kind FormatKind, cfg LoaderConfig) (Loader, error) {
	switch kind {
	case KindJSON:
		return rawJSONLoader{cfg: cfg}, nil
	case KindJSONB:
		return jsonbLoader{cfg: cfg}, nil
	case KindSinew:
		return sinewLoader{cfg: cfg}, nil
	case KindTiles:
		return tilesLoader{cfg: cfg}, nil
	case KindShredded:
		return shredLoader{cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("storage: unknown format %q", kind)
	}
}
