// Package obs is the observability layer of the engine: atomic
// counters, gauges, and histograms aggregated in a process-wide
// Registry, a ring of recent query timelines, a live-query registry
// for in-flight progress, and the per-scan statistics the query path
// fills for EXPLAIN ANALYZE. Everything here is designed to stay off
// the hot path: counters are batched per tile or chunk before one
// atomic add, and histograms are two atomic adds and a CAS.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a named collection of counters, gauges, and histograms.
// Instruments are created on first use and live for the lifetime of
// the registry; reads never block writers (instrument updates are
// lock-free once obtained).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it if
// needed. The returned pointer is stable; hot paths should obtain it
// once and keep it.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if
// needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed (nil bounds select
// DurationBuckets). The first registration fixes the bounds; later
// calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current instrument values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Diff returns s minus base, instrument by instrument. Names absent
// from base count from zero; names present only in base are emitted
// as negative values (a counter that vanished — fresh registry,
// renamed instrument — still shows up in the delta instead of being
// silently dropped).
func (s Snapshot) Diff(base Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - base.Counters[name]
	}
	for name, v := range base.Counters {
		if _, ok := s.Counters[name]; !ok {
			out.Counters[name] = -v
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v - base.Gauges[name]
	}
	for name, v := range base.Gauges {
		if _, ok := s.Gauges[name]; !ok {
			out.Gauges[name] = -v
		}
	}
	for name, v := range s.Histograms {
		out.Histograms[name] = v.Diff(base.Histograms[name])
	}
	for name, v := range base.Histograms {
		if _, ok := s.Histograms[name]; !ok {
			out.Histograms[name] = v.Neg()
		}
	}
	return out
}

// Get returns the snapshot counter value for name (0 when absent).
func (s Snapshot) Get(name string) int64 { return s.Counters[name] }

// GaugeVal returns the snapshot gauge value for name (0 when absent).
func (s Snapshot) GaugeVal(name string) float64 { return s.Gauges[name] }

// Hist returns the snapshot of the named histogram (zero when
// absent).
func (s Snapshot) Hist(name string) HistSnapshot { return s.Histograms[name] }

// WriteTo exports every instrument in Prometheus text exposition
// format, implementing io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return r.Snapshot().WriteTo(w)
}

// WriteTo exports the snapshot in Prometheus text exposition format:
// one "# TYPE" line per metric followed by its samples, histograms as
// cumulative _bucket series plus _sum and _count, all sorted by
// metric name.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := emit("# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return total, err
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := emit("# TYPE %s gauge\n%s %s\n", name, name, formatFloat(s.Gauges[name])); err != nil {
			return total, err
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if err := emit("# TYPE %s histogram\n", name); err != nil {
			return total, err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			if err := emit("%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum); err != nil {
				return total, err
			}
		}
		if err := emit("%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.Count, name, formatFloat(h.Sum), name, h.Count); err != nil {
			return total, err
		}
	}
	return total, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Default is the process-wide registry every scan, load, and query
// reports into.
var Default = NewRegistry()

// The standard engine counters (see README "Observability" for the
// glossary and DESIGN.md for the paper-section mapping).
var (
	TilesScanned      = Default.Counter("tiles_scanned")
	TilesSkipped      = Default.Counter("tiles_skipped")
	RowsScanned       = Default.Counter("rows_scanned")
	RowsEmitted       = Default.Counter("rows_emitted")
	ColumnHits        = Default.Counter("column_hits")
	JSONBFallbacks    = Default.Counter("jsonb_fallbacks")
	CastErrors        = Default.Counter("cast_errors")
	BytesDecompressed = Default.Counter("bytes_decompressed")
	DocsLoaded        = Default.Counter("docs_loaded")
	TilesBuilt        = Default.Counter("tiles_built")
	QueriesRun        = Default.Counter("queries_run")
)

// On-demand ingest counters (structural-tape parsing; DESIGN.md §6.8).
var (
	// IngestDocsTape counts documents ingested through the structural
	// tape without materializing a jsonvalue tree.
	IngestDocsTape = Default.Counter("ingest_docs_tape")
	// IngestSubtreesSkipped counts subtrees the ingest walks skipped
	// via the tape (array elements past the slot cap).
	IngestSubtreesSkipped = Default.Counter("ingest_subtrees_skipped")
	// IngestTapeBytes counts bytes of structural tape built (8 bytes
	// per tape word).
	IngestTapeBytes = Default.Counter("ingest_tape_bytes")
)

// Batch-execution counters (vectorized query path).
var (
	// BatchesEmitted counts column batches produced by batch scans.
	BatchesEmitted = Default.Counter("batches_emitted")
	// RowsVectorized counts rows delivered in batches whose every
	// access was served as a whole vector (zero-copy, widened or
	// all-NULL), with no per-row step.
	RowsVectorized = Default.Counter("rows_vectorized")
	// RowsBatchFallback counts rows delivered in batches where at
	// least one access was resolved row by row (binary JSON fallback,
	// type outliers, casts), into a typed vector or, for ::JSON, a
	// boxed one.
	RowsBatchFallback = Default.Counter("rows_batch_fallback")
	// RowsNarrowed counts scanned rows the scan core dropped before
	// emitting their tile's batch: rows an access's pushed conjunct, or
	// the implicit IS NOT NULL of a null-rejecting access, did not keep.
	RowsNarrowed = Default.Counter("rows_narrowed")
	// DocWalks counts rows whose binary JSON a tile scan walked once to
	// fill every access the tile serves from documents.
	DocWalks = Default.Counter("doc_walks")
	// KernelDispatches counts invocations of vectorized predicate or
	// aggregate kernels (one per batch per compiled kernel tree).
	KernelDispatches = Default.Counter("kernel_dispatches")
	// RowsBoxed counts rows whose cells were boxed into expr.Value:
	// result rows leaving the engine through Materialize. Operators
	// work on column vectors.
	RowsBoxed = Default.Counter("rows_boxed")
)

// Segment persistence counters (disk-backed relations).
var (
	// SegmentBlocksRead counts blocks fetched from disk (buffer-pool
	// misses; hits never reach the disk).
	SegmentBlocksRead = Default.Counter("segment_blocks_read")
	// SegmentBytesRead counts stored (compressed) bytes read from disk.
	SegmentBytesRead = Default.Counter("segment_bytes_read")
	// SegmentBlocksDecoded counts block payloads turned into a column
	// or a document directory: once per buffer-pool residency, so a
	// warm scan adds nothing.
	SegmentBlocksDecoded = Default.Counter("segment_blocks_decoded")
	// BufpoolHits and BufpoolMisses count buffer-pool lookups during
	// scans; BufpoolEvictions counts blocks evicted to stay inside the
	// pool's capacity.
	BufpoolHits      = Default.Counter("bufpool_hits")
	BufpoolMisses    = Default.Counter("bufpool_misses")
	BufpoolEvictions = Default.Counter("bufpool_evictions")
)

// BlockStore counters (storage/compute separation; DESIGN.md §6.9).
var (
	// StoreRangeReads counts ranged read requests issued to block
	// stores (every attempt, retries included). On a remote store this
	// is the request count — the headline cost metric.
	StoreRangeReads = Default.Counter("store_range_reads")
	// StoreBytesRead counts payload bytes returned by ranged reads,
	// gap bytes of coalesced runs included.
	StoreBytesRead = Default.Counter("store_bytes_read")
	// StoreReadCoalesced counts block fetches that rode along in a
	// merged ranged read instead of issuing their own request — the
	// requests coalescing saved.
	StoreReadCoalesced = Default.Counter("store_read_coalesced")
	// StorePrefetchHits counts buffer-pool hits on blocks resident
	// because the scan's fetch window fetched them ahead of their worker.
	StorePrefetchHits = Default.Counter("store_prefetch_hits")
	// StoreRetries counts transient read failures that were retried
	// (with backoff) rather than surfaced.
	StoreRetries = Default.Counter("store_retries")
)

// Dictionary-encoding counters (low-cardinality text columns).
var (
	// DictColumnsBuilt counts text columns dictionary-encoded at tile
	// extraction time (HLL NDV estimate under the configured threshold).
	DictColumnsBuilt = Default.Counter("dict_columns_built")
	// DictKernelShortcuts counts predicate-kernel invocations that
	// evaluated Cmp/LIKE/IN in code space — once per dictionary entry
	// instead of once per row. Scans forward theirs (ScanCounts); an
	// engine Select adds its own once per run.
	DictKernelShortcuts = Default.Counter("dict_kernel_shortcuts")
	// DictGroupByFastpath counts batches aggregated through the
	// array-indexed (code-keyed) GROUP BY fast path; each GroupBy adds
	// its count once per run.
	DictGroupByFastpath = Default.Counter("dict_groupby_fastpath")
)

// Morsel-scheduler counters (dynamic parallel work distribution).
var (
	// MorselsDispatched counts morsels — tile/row-range work units —
	// pulled off shared scan queues (one increment per queue drain,
	// covering all its morsels).
	MorselsDispatched = Default.Counter("morsels_dispatched")
	// MorselQueueWaits counts workers that found the morsel queue
	// already dry before processing a single morsel — parallelism the
	// input was too small to use.
	MorselQueueWaits = Default.Counter("morsel_queue_waits")
	// AggPartitionedMerges counts GROUP BY merge phases that ran
	// hash-partitioned in parallel (vs the serial single-map fold used
	// at workers <= 1).
	AggPartitionedMerges = Default.Counter("agg_partitioned_merges")
)

// Shared worker-pool counters (the scheduler concurrent queries draw
// scan helpers from).
var (
	// SchedTasksRun counts tasks executed by shared-pool workers.
	SchedTasksRun = Default.Counter("sched_tasks_run")
	// SchedSubmitMisses counts helper submissions rejected because the
	// pool queue was full — scans that ran with less parallelism
	// because the machine was already saturated.
	SchedSubmitMisses = Default.Counter("sched_submit_misses")
	// SchedHelpersLate counts pool helpers that started only after
	// their scan had already drained its queue (pool latency the scan
	// absorbed inline).
	SchedHelpersLate = Default.Counter("sched_helpers_late")
)

// Admission-control counters (the query service's front door).
var (
	// AdmissionAdmitted counts queries that acquired an execution slot
	// (immediately or after queueing).
	AdmissionAdmitted = Default.Counter("admission_admitted")
	// AdmissionQueued counts queries that had to wait in the admission
	// queue before getting a slot.
	AdmissionQueued = Default.Counter("admission_queued")
	// AdmissionRejected counts queries turned away: queue full, queue
	// timeout, or server draining.
	AdmissionRejected = Default.Counter("admission_rejected")
	// QueriesCancelled counts queries that ended with a context
	// cancellation or deadline instead of a result.
	QueriesCancelled = Default.Counter("queries_cancelled")
	// QueriesFailed counts queries that ended with ErrUnreadable: a
	// scan read a block that failed its checksum or decode.
	QueriesFailed = Default.Counter("queries_failed")
)

// SkewBuckets is the layout for load-imbalance ratios (1.0 = perfectly
// balanced).
var SkewBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 8}

// MorselWorkerSkew records, per parallel queue drain, the maximum over
// workers of morsels-pulled divided by the balanced share — how uneven
// the dynamic schedule ended up (1.0 = every worker pulled the same
// number of morsels).
var MorselWorkerSkew = Default.Histogram("morsel_worker_skew", SkewBuckets)

// Multi-segment table store counters (manifest + compaction).
var (
	// CompactionsRun counts completed compaction rounds (each merges
	// one group of segments into a larger one).
	CompactionsRun = Default.Counter("compactions_run")
	// CompactionBytesRewritten totals the bytes of merged segment
	// files written by compaction — the write amplification spent to
	// keep segment counts bounded.
	CompactionBytesRewritten = Default.Counter("compaction_bytes_rewritten")
	// ManifestRecoveries counts table-directory opens that had to
	// garbage-collect leftovers of an interrupted commit (orphaned
	// segments or half-written manifests).
	ManifestRecoveries = Default.Counter("manifest_recoveries")
)

// Point-in-time gauges.
var (
	// SegmentsLive tracks the number of currently open segments across
	// all directory-backed tables (opens add, closes and compaction
	// drops subtract).
	SegmentsLive = Default.Gauge("segments_live")
	// QueriesActive is the number of queries currently executing
	// (mirrors the live-query registry's size).
	QueriesActive = Default.Gauge("queries_active")
	// BufpoolBytes is the bytes resident across every buffer pool in
	// the process: stored bytes until a block's first decode, then what
	// its decoded form retains.
	BufpoolBytes = Default.Gauge("bufpool_bytes")
	// BufpoolPinnedBytes is the payload bytes currently pinned by
	// outstanding handles across every pool. With no scan in flight it
	// must read 0 — a nonzero quiesced value means a query (cancelled
	// or not) leaked pins and its blocks can never be evicted.
	BufpoolPinnedBytes = Default.Gauge("bufpool_pinned_bytes")
	// BufpoolHitRatio is hits/(hits+misses) over all pool lookups so
	// far (0 before the first lookup). Refreshed after every scan.
	BufpoolHitRatio = Default.Gauge("bufpool_hit_ratio")
	// CompactionBacklog is the number of segments currently eligible
	// for compaction (members of tiers holding at least fan-in
	// segments), summed over all directory tables.
	CompactionBacklog = Default.Gauge("compaction_backlog")
	// QueriesQueued is the number of queries currently waiting in the
	// admission queue for an execution slot.
	QueriesQueued = Default.Gauge("queries_queued")
)

// Latency and size distributions.
var (
	// QueryWallSeconds, QueryPlanSeconds, and QueryExecSeconds are the
	// end-to-end, optimizer, and execution latency distributions over
	// every Run/RunAnalyzed in the process.
	QueryWallSeconds = Default.Histogram("query_wall_seconds", DurationBuckets)
	QueryPlanSeconds = Default.Histogram("query_plan_seconds", DurationBuckets)
	QueryExecSeconds = Default.Histogram("query_exec_seconds", DurationBuckets)
	// QueryRowsReturned is the result-size distribution.
	QueryRowsReturned = Default.Histogram("query_rows_returned", ExpBuckets(1, 4, 12))
	// CompactionSeconds is the duration distribution of compaction
	// rounds (merge + manifest publish).
	CompactionSeconds = Default.Histogram("compaction_seconds", DurationBuckets)
	// SegmentWriteSeconds and SegmentOpenSeconds time segment-file
	// writes (flush, merge) and metadata-only opens.
	SegmentWriteSeconds = Default.Histogram("segment_write_seconds", DurationBuckets)
	SegmentOpenSeconds  = Default.Histogram("segment_open_seconds", DurationBuckets)
	// SegmentWriteBytes is the size distribution of written segments.
	SegmentWriteBytes = Default.Histogram("segment_write_bytes", SizeBuckets)
	// ManifestCommitSeconds times durable manifest commits
	// (write + fsync + rename + dir sync).
	ManifestCommitSeconds = Default.Histogram("manifest_commit_seconds", DurationBuckets)
)
