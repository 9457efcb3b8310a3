// Package tile implements JSON tiles (paper §3): columnar chunks of a
// JSON collection whose locally-frequent key paths are materialized as
// typed relational columns, with a per-tile header describing what was
// seen and what was extracted (§4.4), per-tile statistics for the
// optimizer (§4.6), in-place updates (§4.7), and the information the
// scan needs to skip tiles without matches (§4.8).
package tile

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/column"
	"repro/internal/dates"
	"repro/internal/fpgrowth"
	"repro/internal/hist"
	"repro/internal/hll"
	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/obs"
)

// Config holds the extraction parameters. The defaults follow the
// paper's evaluation: tile size 2¹⁰, partition size 8, extraction
// threshold 60 %.
type Config struct {
	// TileSize is the number of tuples per tile.
	TileSize int
	// PartitionSize is the number of neighboring tiles grouped for
	// tuple reordering (§3.2).
	PartitionSize int
	// Threshold is the extraction threshold: an itemset is extracted
	// when at least Threshold × TileSize tuples contain it.
	Threshold float64
	// Budget bounds the number of itemsets the miner may generate
	// (Eq. 1); zero selects fpgrowth.DefaultBudget.
	Budget int
	// MaxArraySlots bounds how many leading array elements receive key
	// paths (§3.5); zero selects keypath.DefaultMaxArraySlots.
	MaxArraySlots int
	// DetectDates enables timestamp extraction for date-like string
	// columns (§4.9). The fig14 "no Date" ablation turns it off.
	DetectDates bool
}

// dictThreshold is the NDV/rows ratio at or below which an extracted
// text column takes the dictionary layout (the sorted dictionary turns
// string predicates and group-bys into integer-code work); columns
// above it keep the arena layout.
const dictThreshold = 0.5

// maybeDictEncode switches a low-cardinality text column to the
// dictionary layout: the per-path HLL sketch (§4.6) estimates NDV for
// free, and DictEncode re-checks the exact count so an HLL undershoot
// falls back losslessly to the arena.
func maybeDictEncode(col *column.Column, sketch *hll.Sketch) {
	nonNull := col.Len() - col.NullCount()
	ndvCap := max(int(math.Ceil(dictThreshold*float64(nonNull))), 1)
	if sketch.Estimate() <= float64(ndvCap) && col.DictEncode(ndvCap) {
		obs.DictColumnsBuilt.Inc()
	}
}

// DefaultConfig returns the paper's recommended settings.
func DefaultConfig() Config {
	return Config{
		TileSize:      1 << 10,
		PartitionSize: 8,
		Threshold:     0.6,
		DetectDates:   true,
	}
}

// MinSupport converts the relative threshold into the absolute tuple
// count for n tuples (an itemset is frequent if its frequency count
// divided by n exceeds the threshold).
func (c Config) MinSupport(n int) int {
	s := int(math.Ceil(c.Threshold * float64(n)))
	if s < 1 {
		s = 1
	}
	return s
}

// Metrics accumulates loading-time breakdowns (Figure 16). Fields are
// atomically updated nanosecond counters so parallel loaders can share
// one Metrics.
type Metrics struct {
	ParseNanos      atomic.Int64
	MineNanos       atomic.Int64
	ExtractNanos    atomic.Int64
	WriteJSONBNanos atomic.Int64
	ReorderNanos    atomic.Int64
	TilesBuilt      atomic.Int64
	// On-demand ingest accounting (DESIGN.md §6.8): documents built
	// from the structural tape, and subtrees the tape walks skipped.
	DocsTape        atomic.Int64
	SubtreesSkipped atomic.Int64
	// TapeWalks counts tape documents walked for their key paths
	// (WalkTapes): once per document when reordering hands its walks
	// to the tile builds.
	TapeWalks atomic.Int64
	// Deterministic work counts of mining and reordering (see
	// fpgrowth.Work): FP-tree node updates, and itemset containment or
	// overlap tests.
	FPNodes     atomic.Int64
	SubsetTests atomic.Int64
}

// AddWork accumulates a miner's work counts; m may be nil.
func (m *Metrics) AddWork(w fpgrowth.Work) {
	if m == nil {
		return
	}
	m.FPNodes.Add(w.FPNodes)
	m.SubsetTests.Add(w.SubsetTests)
}

// MetricsSnapshot is a point-in-time copy of Metrics, comparable and
// diffable (the CLI prints per-experiment deltas).
type MetricsSnapshot struct {
	ParseNanos      int64
	MineNanos       int64
	ExtractNanos    int64
	WriteJSONBNanos int64
	ReorderNanos    int64
	TilesBuilt      int64
	DocsTape        int64
	SubtreesSkipped int64
	TapeWalks       int64
	FPNodes         int64
	SubsetTests     int64
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		ParseNanos:      m.ParseNanos.Load(),
		MineNanos:       m.MineNanos.Load(),
		ExtractNanos:    m.ExtractNanos.Load(),
		WriteJSONBNanos: m.WriteJSONBNanos.Load(),
		ReorderNanos:    m.ReorderNanos.Load(),
		TilesBuilt:      m.TilesBuilt.Load(),
		DocsTape:        m.DocsTape.Load(),
		SubtreesSkipped: m.SubtreesSkipped.Load(),
		TapeWalks:       m.TapeWalks.Load(),
		FPNodes:         m.FPNodes.Load(),
		SubsetTests:     m.SubsetTests.Load(),
	}
}

// Sub returns the delta s - base, phase by phase.
func (s MetricsSnapshot) Sub(base MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		ParseNanos:      s.ParseNanos - base.ParseNanos,
		MineNanos:       s.MineNanos - base.MineNanos,
		ExtractNanos:    s.ExtractNanos - base.ExtractNanos,
		WriteJSONBNanos: s.WriteJSONBNanos - base.WriteJSONBNanos,
		ReorderNanos:    s.ReorderNanos - base.ReorderNanos,
		TilesBuilt:      s.TilesBuilt - base.TilesBuilt,
		DocsTape:        s.DocsTape - base.DocsTape,
		SubtreesSkipped: s.SubtreesSkipped - base.SubtreesSkipped,
		TapeWalks:       s.TapeWalks - base.TapeWalks,
		FPNodes:         s.FPNodes - base.FPNodes,
		SubsetTests:     s.SubsetTests - base.SubsetTests,
	}
}

// String renders the Figure-16-style insertion breakdown on one line.
func (s MetricsSnapshot) String() string {
	ms := func(n int64) float64 { return float64(n) / 1e6 }
	return fmt.Sprintf(
		"parse %.1fms  mine %.1fms  extract %.1fms  jsonb %.1fms  reorder %.1fms  (%d tiles, %d tape docs)",
		ms(s.ParseNanos), ms(s.MineNanos), ms(s.ExtractNanos),
		ms(s.WriteJSONBNanos), ms(s.ReorderNanos), s.TilesBuilt, s.DocsTape)
}

// ColumnInfo describes one extracted column in the tile header.
type ColumnInfo struct {
	// Path is the canonical encoded key path.
	Path string
	// MinedType is the primitive JSON type paired with the path in the
	// frequent itemset.
	MinedType keypath.ValueType
	// StorageType is the column's storage type; it differs from
	// MinedType only for detected dates (Text mined, Timestamp stored).
	StorageType keypath.ValueType
	// HasTypeOutliers is set when some tuple carries the path with a
	// different non-null type (or an unparseable date): a null in the
	// column then requires the binary-JSON fallback to stay correct.
	HasTypeOutliers bool
	// Col is the materialized data.
	Col *column.Column
}

// Tile is one materialized chunk.
type Tile struct {
	numRows int
	columns []ColumnInfo
	byItem  map[keypath.Item]int // (path, mined type) -> column index
	byPath  map[string][]int     // path -> column indexes (usually one)

	// notExtracted remembers every key path seen in the tile but not
	// materialized; MayContainPath consults it before a tile is
	// skipped (§4.8). Updates add new paths here (§4.7).
	notExtracted *bloom.Filter

	// pathFreq counts, per key path, the tuples carrying the path with
	// a non-null value — the per-tile frequency database aggregated
	// into relation statistics (§4.6).
	pathFreq map[string]int

	// sketches holds one HyperLogLog per extracted path over its
	// values (§4.6).
	sketches map[string]*hll.Sketch

	// histograms holds one equi-width histogram per extracted numeric
	// or timestamp path (the "regular histograms" the paper mentions
	// as the analogous domain statistic).
	histograms map[string]*hist.Histogram

	raw [][]byte // binary JSON of every tuple (fallback storage)

	outliers int // updated docs that share nothing with the schema (§4.7)
}

// Builder constructs tiles with one Config, counting into Metrics.
type Builder struct {
	Config  Config
	Metrics *Metrics
}

// NewBuilder returns a Builder with the given config, counting into m
// (into a Metrics of its own when m is nil).
func NewBuilder(cfg Config, m *Metrics) *Builder {
	if cfg.TileSize <= 0 {
		cfg = DefaultConfig()
	}
	if m == nil {
		m = new(Metrics)
	}
	return &Builder{Config: cfg, Metrics: m}
}

// isExtractableType reports whether a mined item type can become a
// typed column. Nulls and empty containers only mark presence.
func isExtractableType(t keypath.ValueType) bool {
	switch t {
	case keypath.TypeBool, keypath.TypeBigInt, keypath.TypeDouble, keypath.TypeString:
		return true
	default:
		return false
	}
}

func sortDedup(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	// Insertion sort: transactions are small and mostly sorted
	// (collection order is deterministic).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// NumRows returns the tuple count.
func (t *Tile) NumRows() int { return t.numRows }

// Columns returns the header's extracted-column descriptors.
func (t *Tile) Columns() []ColumnInfo { return t.columns }

// Raw returns the binary JSON document of row i.
func (t *Tile) Raw(i int) jsonb.Doc { return jsonb.NewDoc(t.raw[i]) }

// Members returns every row's whole document, which holds each
// top-level key the row has (the scan's per-tile document accessor).
func (t *Tile) Members(string) ([][]byte, bool) { return t.raw, true }

// RawBytes returns the encoded buffer of row i.
func (t *Tile) RawBytes(i int) []byte { return t.raw[i] }

// FindColumn returns the column index for (path, mined type), or -1.
func (t *Tile) FindColumn(path string, mined keypath.ValueType) int {
	if idx, ok := t.byItem[keypath.Item{Path: path, Type: mined}]; ok {
		return idx
	}
	return -1
}

// ColumnsForPath returns the indexes of all columns extracted for the
// path (multiple when the tile holds the path with several types).
func (t *Tile) ColumnsForPath(path string) []int { return t.byPath[path] }

// Column returns the descriptor at index idx.
func (t *Tile) Column(idx int) *ColumnInfo { return &t.columns[idx] }

// ColumnType returns the storage type and outlier flag of column idx.
func (t *Tile) ColumnType(idx int) (storage keypath.ValueType, hasOutliers bool) {
	return t.columns[idx].StorageType, t.columns[idx].HasTypeOutliers
}

// MayContainPath reports whether any tuple might carry the path: true
// when the path is extracted or the seen-paths bloom filter matches.
// False guarantees every access to the path yields null, which is
// what tile skipping needs (§4.8).
func (t *Tile) MayContainPath(path string) bool {
	if _, ok := t.byPath[path]; ok {
		return true
	}
	return t.notExtracted.MayContain(path)
}

// SeenFilter exposes the seen-but-not-extracted bloom filter so the
// segment writer can persist tile headers. Read-only; may be nil for
// a tile that never finalized.
func (t *Tile) SeenFilter() *bloom.Filter { return t.notExtracted }

// PathFrequency returns the number of tuples carrying the path with a
// non-null value.
func (t *Tile) PathFrequency(path string) int { return t.pathFreq[path] }

// PathFrequencies exposes the per-tile frequency database for
// relation-level aggregation.
func (t *Tile) PathFrequencies() map[string]int { return t.pathFreq }

// Sketch returns the HyperLogLog sketch of an extracted path (nil if
// the path was not extracted).
func (t *Tile) Sketch(path string) *hll.Sketch { return t.sketches[path] }

// Sketches exposes all per-path sketches for aggregation.
func (t *Tile) Sketches() map[string]*hll.Sketch { return t.sketches }

// Histogram returns the numeric histogram of an extracted path (nil
// when the path is not extracted or not numeric).
func (t *Tile) Histogram(path string) *hist.Histogram { return t.histograms[path] }

// Histograms exposes all per-path histograms for aggregation.
func (t *Tile) Histograms() map[string]*hist.Histogram { return t.histograms }

// ColumnSizeBytes returns the memory consumed by extracted columns —
// the "+Tiles" storage overhead of Table 6.
func (t *Tile) ColumnSizeBytes() int {
	total := 0
	for _, c := range t.columns {
		total += c.Col.SizeBytes() + len(c.Path) + 8
	}
	if t.notExtracted != nil {
		total += t.notExtracted.SizeBytes()
	}
	return total
}

// ColumnCompressedSizeBytes returns the LZ4-compressed column bytes —
// the "+LZ4-Tiles" row of Table 6.
func (t *Tile) ColumnCompressedSizeBytes() int {
	total := 0
	for _, c := range t.columns {
		total += c.Col.CompressedSize() + len(c.Path) + 8
	}
	if t.notExtracted != nil {
		total += t.notExtracted.SizeBytes()
	}
	return total
}

// RawSizeBytes returns the binary JSON bytes stored in the tile.
func (t *Tile) RawSizeBytes() int {
	total := 0
	for _, r := range t.raw {
		total += len(r)
	}
	return total
}

// see records a key path a document holds, the step builds and
// updates share: a path no column extracts goes into the seen filter,
// and a container at an extracted path flags the path's columns, so
// their NULLs fall back to the document.
func (t *Tile) see(path string, asContainer bool) {
	cols, extracted := t.byPath[path]
	if !extracted {
		t.notExtracted.Add(path)
	} else if asContainer {
		for _, ci := range cols {
			t.columns[ci].HasTypeOutliers = true
		}
	}
}

// Update replaces the document of row i with the parsed document d
// (§4.7). Extracted columns are updated in place; keys the new document lacks become nulls; new key
// paths are added to the header bloom filter so skipping stays
// correct. It returns whether the new document was an outlier (no
// overlap with the extracted schema).
func (t *Tile) Update(i int, d *jsontape.Doc, maxSlots int) bool {
	var enc jsonb.Encoder
	t.raw[i] = enc.EncodeTape(d)

	type leaf struct {
		t keypath.ValueType
		n jsontape.Node
	}
	leaves := map[string]leaf{} // the last occurrence of a path wins
	keypath.CollectTape(d, maxSlots, func(pathEnc []byte, vt keypath.ValueType, n jsontape.Node) {
		path := string(pathEnc)
		leaves[path] = leaf{vt, n}
		t.see(path, false)
		keypath.Prefixes(path, func(prefix string) bool {
			t.see(prefix, true)
			return true
		})
	})

	overlap := 0
	for ci := range t.columns {
		info := &t.columns[ci]
		lf, present := leaves[info.Path]
		if !present || lf.t != info.MinedType {
			info.Col.SetNull(i)
			if present && lf.t != keypath.TypeNull {
				info.HasTypeOutliers = true
			}
			continue
		}
		overlap++
		switch info.StorageType {
		case keypath.TypeBigInt:
			info.Col.SetInt(i, lf.n.IntVal())
		case keypath.TypeDouble:
			info.Col.SetFloat(i, lf.n.FloatVal())
		case keypath.TypeTimestamp:
			if ts, ok := dates.Parse(lf.n.StringVal()); ok {
				info.Col.SetInt(i, ts)
			} else {
				info.Col.SetNull(i)
				info.HasTypeOutliers = true
			}
		default:
			// Text and Bool updates rewrite the whole slot region in a
			// real system; here we mark null and serve from the binary
			// JSON, which preserves correctness.
			info.Col.SetNull(i)
			info.HasTypeOutliers = true
		}
	}
	if overlap == 0 && len(t.columns) > 0 {
		t.outliers++
	}
	return overlap == 0 && len(t.columns) > 0
}

// NeedsRecompute reports whether enough outlier documents accumulated
// that re-materializing the tile is worthwhile (§4.7: "only ... after
// the majority of the tuples do not match the current extracted
// schema").
func (t *Tile) NeedsRecompute() bool {
	return t.outliers > t.numRows/2
}

// OutlierCount returns the number of update-introduced outliers.
func (t *Tile) OutlierCount() int { return t.outliers }
