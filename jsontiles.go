// Package jsontiles is the public API of this JSON Tiles
// implementation (Durner, Leis, Neumann: "JSON Tiles: Fast Analytics
// on Semi-Structured Data", SIGMOD 2021). It stores collections of
// JSON documents as *tiles* — columnar chunks whose locally-frequent
// key paths are automatically detected (frequent itemset mining),
// materialized as typed columns, and backed by an optimized binary
// JSON representation for everything infrequent — and runs analytical
// queries over them at near-columnar speed while keeping full JSON
// flexibility.
//
// Quick start:
//
//	tbl, err := jsontiles.Load("events", docs, jsontiles.DefaultOptions())
//	res, err := tbl.Query(
//	        "data->>'status'",
//	        "data->>'latency_ms'::Float",
//	    ).
//	    WhereNotNull(0).
//	    GroupBy(0).
//	    Aggregate(jsontiles.CountAll("n"), jsontiles.Avg(1, "avg_latency")).
//	    OrderBy(1, true).
//	    Run()
//
// Access expressions use PostgreSQL syntax: -> steps into objects and
// arrays, ->> extracts text, and a trailing ::Type cast is rewritten
// into a typed column access (paper §4.3).
package jsontiles

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/jsontape"
	"repro/internal/storage"
	"repro/internal/tile"
)

// Options configures table construction. The zero value is not valid;
// start from DefaultOptions.
type Options struct {
	// TileSize is the number of documents per tile (paper default 2¹⁰).
	TileSize int
	// PartitionSize is the number of neighboring tiles grouped for
	// tuple reordering (paper default 8).
	PartitionSize int
	// ExtractionThreshold is the fraction of a tile's documents that
	// must share a structure for it to be materialized (default 0.6).
	ExtractionThreshold float64
	// Reorder enables clustering tuples with equal frequent structure
	// into the same tiles (§3.2).
	Reorder bool
	// Workers bounds loading and query parallelism (0 = all CPUs).
	Workers int
	// CacheBytes bounds the buffer pool of persisted tables (OpenDir,
	// OpenStore): blocks kept resident across queries, compressed until
	// their first decode and decoded afterwards. 0 means the 64 MiB
	// default; in-memory tables ignore it.
	CacheBytes int64
	// CompactFanIn is how many same-size-tier segments a directory-
	// backed table (OpenDir) merges per compaction round. 0 selects
	// the default (4); a negative value disables background
	// compaction — segments then accumulate one per flush until
	// Compact is called explicitly.
	CompactFanIn int
	// SlowQueryThreshold, when positive, instruments every query on
	// this table like RunAnalyzed and writes one JSON line to stderr
	// for each query whose wall time reaches the threshold. Lines are
	// serialized process-wide, so one never interleaves with another
	// even across tables. On a multi-table query the first table (in
	// add order) with a positive threshold provides it.
	SlowQueryThreshold time.Duration
}

// withDefaults substitutes DefaultOptions for the tile-layout fields
// when the caller left TileSize zero, while preserving the runtime
// fields (workers, cache, compaction, slow-query threshold) the caller
// may have set without picking a layout.
func (o Options) withDefaults() Options {
	if o.TileSize != 0 {
		return o
	}
	def := DefaultOptions()
	def.Workers = o.Workers
	def.CacheBytes = o.CacheBytes
	def.CompactFanIn = o.CompactFanIn
	def.SlowQueryThreshold = o.SlowQueryThreshold
	return def
}

// DefaultOptions returns the paper's recommended settings.
func DefaultOptions() Options {
	return Options{
		TileSize:            1 << 10,
		PartitionSize:       8,
		ExtractionThreshold: 0.6,
		Reorder:             true,
	}
}

// loaderConfig is the Tiles build configuration of o, recording the
// build's metrics into m. Tile skipping (§4.8) and date detection
// (§4.9) stay on: only the Figure 14 ablation turns them off.
func (o Options) loaderConfig(m *tile.Metrics) storage.LoaderConfig {
	cfg := storage.DefaultLoaderConfig()
	cfg.Metrics = m
	if o.TileSize > 0 {
		cfg.Tile.TileSize = o.TileSize
	}
	if o.PartitionSize > 0 {
		cfg.Tile.PartitionSize = o.PartitionSize
	}
	if o.ExtractionThreshold > 0 {
		cfg.Tile.Threshold = o.ExtractionThreshold
	}
	cfg.Reorder = o.Reorder
	return cfg
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Table is a JSON collection stored as JSON tiles.
type Table struct {
	name    string
	opts    Options
	rel     storage.Relation
	pending storage.ParsedBatch
	metrics *tile.Metrics
	store   BlockStore // built here from a path (OpenDir); Close closes it
}

// Load parses and ingests a batch of JSON documents (one document per
// element) into a new table.
func Load(name string, docs [][]byte, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	m := &tile.Metrics{}
	rel, err := storage.BuildTilesFromLines(name, docs, opts.loaderConfig(m), opts.workers())
	if err != nil {
		return nil, err
	}
	return &Table{name: name, opts: opts, rel: rel, metrics: m}, nil
}

// LoadReader ingests newline-delimited JSON from r.
func LoadReader(name string, r io.Reader, opts Options) (*Table, error) {
	var docs [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := trimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		docs = append(docs, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return Load(name, docs, opts)
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && isASCIISpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isASCIISpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '\v', '\f':
		return true
	}
	return false
}

// New returns an empty table for incremental insertion. Documents are
// buffered and materialized into tiles partition by partition; call
// Flush to force pending documents into tiles.
func New(name string, opts Options) *Table {
	opts = opts.withDefaults()
	m := &tile.Metrics{}
	rel, _ := storage.BuildTilesFromLines(name, nil, opts.loaderConfig(m), 1) // no documents, no error
	return &Table{name: name, opts: opts, rel: rel, metrics: m}
}

// Insert buffers one JSON document. A new tile partition is
// materialized whenever TileSize × PartitionSize documents accumulate
// (§3.2: "A new tile is created whenever the number of newly-inserted
// tuples reaches the tile size"). The document is parsed now, once,
// into the structural tape (DESIGN.md §6.8) its tile is later built
// from; a malformed document, or one past the tape limits, is rejected
// with the parser's error.
func (t *Table) Insert(doc []byte) error {
	if err := t.pending.Add(append([]byte(nil), doc...), t.metrics); err != nil {
		return err
	}
	if t.pending.Len() >= t.opts.TileSize*t.opts.PartitionSize {
		return t.Flush()
	}
	return nil
}

// Flush materializes pending documents into tiles. On an in-memory
// table the new tiles are concatenated onto the relation; on a
// directory-backed table (OpenDir) they are persisted as one new
// segment and committed to the manifest — work proportional to the
// pending documents, independent of table size.
func (t *Table) Flush() error {
	if t.pending.Len() == 0 {
		return nil
	}
	newRel := storage.BuildTilesFromBatch(t.name, &t.pending, t.opts.loaderConfig(t.metrics), t.opts.workers())
	if dt, ok := t.rel.(*storage.DirTable); ok {
		ti := newRel.(storage.TileIntrospector)
		return dt.AppendTiles(ti.Tiles(), newRel.Stats())
	}
	if t.rel == nil || t.rel.NumRows() == 0 {
		t.rel = newRel
		return nil
	}
	t.rel = storage.Concat(t.name, t.rel, newRel)
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of materialized documents (excluding
// pending inserts; call Flush first to count everything).
func (t *Table) NumRows() int {
	if t.rel == nil {
		return 0
	}
	return t.rel.NumRows()
}

// Update replaces the document at row index i in place (§4.7): shared
// extracted keys are updated in the columns, removed keys become
// nulls, and new key paths register in the tile header. It reports
// whether the containing tile accumulated so many structural outliers
// that re-materialization is advisable. The document is parsed like an
// inserted one: a malformed document, or one past the tape limits, is
// rejected with the parser's error.
func (t *Table) Update(i int, doc []byte) (recomputeAdvised bool, err error) {
	var d jsontape.Doc
	if err := jsontape.Parse(doc, &d); err != nil {
		return false, err
	}
	up, ok := t.rel.(interface {
		UpdateRow(int, *jsontape.Doc) (bool, error)
	})
	if !ok {
		return false, fmt.Errorf("jsontiles: table does not support updates")
	}
	return up.UpdateRow(i, &d)
}

// Recompute re-materializes tiles whose documents drifted away from
// their extracted schema through updates (§4.7) and returns how many
// tiles were rebuilt. Cheap when nothing drifted.
func (t *Table) Recompute() int {
	rc, ok := t.rel.(interface{ RecomputeTiles() int })
	if !ok {
		return 0
	}
	return rc.RecomputeTiles()
}

// LoadStats breaks down where ingest time went, per loading phase
// (paper Figure 16), accumulated over every Load/Insert/Flush into
// this table.
type LoadStats struct {
	// Parse is JSON text parsing; Mine is frequent-structure mining
	// (§3.1); Extract is column materialization; WriteJSONB is binary
	// JSON encoding (§4.5); Reorder is tuple clustering (§3.2).
	Parse, Mine, Extract, WriteJSONB, Reorder time.Duration
	// TilesBuilt is the number of tiles materialized.
	TilesBuilt int64
	// DocsTape counts documents built into tiles from their structural
	// tapes (DESIGN.md §6.8).
	DocsTape int64
	// SubtreesSkipped counts array subtrees skipped (not walked) during
	// extraction because they lay beyond the MaxArraySlots cap.
	SubtreesSkipped int64
}

// String renders the breakdown on one line.
func (s LoadStats) String() string {
	return fmt.Sprintf("parse %s  mine %s  extract %s  jsonb %s  reorder %s  (%d tiles, %d tape docs)",
		s.Parse.Round(time.Microsecond), s.Mine.Round(time.Microsecond),
		s.Extract.Round(time.Microsecond), s.WriteJSONB.Round(time.Microsecond),
		s.Reorder.Round(time.Microsecond), s.TilesBuilt, s.DocsTape)
}

// LoadStats reports the table's cumulative load-time breakdown.
func (t *Table) LoadStats() LoadStats {
	snap := t.metrics.Snapshot()
	return LoadStats{
		Parse:           time.Duration(snap.ParseNanos),
		Mine:            time.Duration(snap.MineNanos),
		Extract:         time.Duration(snap.ExtractNanos),
		WriteJSONB:      time.Duration(snap.WriteJSONBNanos),
		Reorder:         time.Duration(snap.ReorderNanos),
		TilesBuilt:      snap.TilesBuilt,
		DocsTape:        snap.DocsTape,
		SubtreesSkipped: snap.SubtreesSkipped,
	}
}
