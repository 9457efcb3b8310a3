package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricValue is one reported number with the unit BENCHMARK.json
// gives it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing summarizes one latency sample: median, p95 and how many
// samples they rest on.
type timing struct {
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	Samples int     `json:"samples"`
}

func timingOf(ms []float64) timing {
	return timing{P50MS: median(ms), P95MS: percentile(ms, 0.95), Samples: len(ms)}
}

// report is what one workload run writes under benchmark/out/. Every
// file carries the header that says what was measured, on what, and
// for how long.
type report struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Traced     bool   `json:"traced"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Sizes      sizes  `json:"sizes"`
	// MeasuredWallS is the wall time of the measured part: ingest
	// batches and compactions plus the closed query loop.
	MeasuredWallS float64 `json:"measured_wall_s"`
	TotalWallS    float64 `json:"total_wall_s"`

	Corpus  corpusInfo             `json:"corpus"`
	Ingest  ingestInfo             `json:"ingest"`
	Metrics map[string]metricValue `json:"metrics"`
	// Timings gives every timed sample as median, p95 and count.
	Timings map[string]timing `json:"timings"`
	// BlockWallMS is the wall time of every equal-work block of the
	// query phase, in the order they ran: slow spells of the machine and
	// periodic stalls of the program both show here.
	BlockWallMS []float64 `json:"block_wall_ms"`
	// BlockYardMS is the yardstick's reading beside each of them, and
	// Host what the readings of the whole run say about the machine.
	BlockYardMS []float64 `json:"block_yardstick_ms"`
	Host        hostInfo  `json:"host"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Failures  []string `json:"failures,omitempty"`

	// Traced runs only.
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	SpanSelfMS  map[string]float64 `json:"span_self_ms,omitempty"`
	TraceCheck  *traceCheck        `json:"trace_check,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
	Counters    map[string]int64   `json:"engine_counters,omitempty"`

	// Claim is always null: this benchmark defines the measurement and
	// claims no gain.
	Claim any `json:"claim"`
}

// ingestInfo records what the ingest phase loaded and what the
// engine's own load-phase clocks (Table.LoadStats) say about it.
type ingestInfo struct {
	Docs                  int    `json:"docs"`
	InputBytes            int64  `json:"input_bytes"`
	Passes                int    `json:"passes"`
	FlushesPerPass        int    `json:"flushes_per_pass"`
	SegmentsBeforeCompact int    `json:"segments_before_compact"`
	StoredBytes           int64  `json:"stored_bytes"`
	LoadStats             string `json:"load_stats_last_pass"`
}

func ingestInfoOf(p *pass) ingestInfo {
	in := &p.ingest
	return ingestInfo{
		Docs: in.Docs, InputBytes: in.InputBytes, Passes: p.sz.IngestPasses,
		FlushesPerPass: in.Flushes / p.sz.IngestPasses, SegmentsBeforeCompact: in.Segments,
		StoredBytes: in.StoredBytes, LoadStats: in.Load.String(),
	}
}

// hostInfo records the state of the shared machine during the run and
// how the timed metrics were brought to the reference machine's speed
// (hostref.go).
type hostInfo struct {
	YardstickNominalMS float64 `json:"yardstick_nominal_ms"`
	YardstickMS        timing  `json:"yardstick_ms"`
	// SpeedIndex is nominal ÷ median reading: 1 on the quiet reference
	// machine, about 0.6 in its slow spells.
	SpeedIndex float64 `json:"speed_index"`
	// Shares is the part of each kind of timed work that scales with
	// the yardstick.
	Shares map[string]float64 `json:"shares"`
}

func hostInfoOf(y *yardstick, queryShare float64) hostInfo {
	return hostInfo{
		YardstickNominalMS: yardNominalMS, YardstickMS: timingOf(y.readings),
		SpeedIndex: ratio(yardNominalMS, y.typical()),
		Shares:     map[string]float64{"query": queryShare, "ingest": hostShareIngest, "append": hostShareIngest, "setup": hostShareSetup},
	}
}

// traceCheck compares the time the spans attribute to layers with the
// operation wall time the harness measured with its own clock.
type traceCheck struct {
	AttributedMS float64 `json:"attributed_ms"`
	OpWallMS     float64 `json:"measured_op_wall_ms"`
	Ratio        float64 `json:"ratio"`
}

// gitRev identifies the measured tree: the checked-out commit when
// there is a repository, otherwise "unknown" (the driver's checkout
// is a plain directory).
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

// nonTestGoLOC counts the lines of non-test .go files under root,
// outside the benchmark's own directories — the figure the roadmap
// tracks so that growth of the engine is a visible decision.
func nonTestGoLOC(root string, skip []string) (int, error) {
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			for _, s := range skip {
				if rel == filepath.Clean(s) {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += strings.Count(string(b), "\n")
		return nil
	})
	return total, err
}

// endToEnd derives the end-to-end metrics from an untraced full pass.
func endToEnd(p *pass, setupS []float64, rss float64) map[string]float64 {
	in, q := &p.ingest, &p.query
	kept := q.kept()
	all, byClass, appendMS := latencies(kept, q.HostShare)
	var classMedians []float64
	for _, l := range byClass {
		classMedians = append(classMedians, median(l))
	}
	var keptQueries, keptWallNs float64
	for _, b := range kept {
		keptQueries += float64(len(b.MS))
		keptWallNs += float64(b.WallNs) / hostFactor(b.YardMS, q.HostShare)
	}
	m := map[string]float64{
		"setup_s":                     median(setupS),
		"ingest_mb_per_s":             mbPerS(in.InputBytes, int64(sum(in.BatchMS)*1e6)),
		"stored_bytes_per_input_byte": ratio(float64(in.StoredBytes), float64(in.InputBytes)),
		"queries_per_s":               float64(q.Clients) * ratio(keptQueries, keptWallNs/1e9),
		"query_p50_ms":                median(all),
		"query_p95_ms":                percentile(all, 0.95),
		"query_geomean_ms":            geomean(classMedians),
		"peak_rss_mb":                 rss,
	}
	if p.sz.Mode == modeServe {
		// Appends and bytes on the wire are measured where they compete
		// with queries.
		m["append_batch_p50_ms"] = median(appendMS)
		m["wire_bytes_per_query"] = ratio(float64(q.WireBytes), float64(q.Queries))
	} else {
		m["append_batch_p50_ms"] = median(in.RefBatchMS)
		m["wire_bytes_per_query"] = ratio(float64(p.served.Bytes), float64(p.served.Queries))
	}
	if p.sz.AllocPerDoc {
		m["alloc_bytes_per_op"] = ratio(float64(in.AllocBytes), float64(in.Docs*p.sz.IngestPasses))
	} else {
		m["alloc_bytes_per_op"] = ratio(float64(q.AllocBytes), float64(q.Queries))
	}
	return m
}

// perLayer derives the per-layer metrics from the traced pass, the
// untraced pass of the same size, the layer probes and the spans.
func perLayer(p, base *pass, lp *layerProbes, self map[string]float64, loc int, failRatio float64) map[string]float64 {
	in, q := &p.ingest, &p.query
	oi, oq := &p.obsIngest, &p.obsQuery
	queries := float64(q.Queries)
	sc := p.queryStore
	passes := float64(p.sz.IngestPasses)
	// Bytes written per loaded byte: the flushes of one pass plus one
	// compaction of what they wrote.
	putBytes := float64(p.ingestStore.putBytes)/passes + float64(p.compactStore.putBytes)
	hits, misses := float64(oq.Get("bufpool_hits")), float64(oq.Get("bufpool_misses"))
	scanned, skipped := float64(oq.Get("tiles_scanned")), float64(oq.Get("tiles_skipped"))
	colHits, fallbacks := float64(oq.Get("column_hits")), float64(oq.Get("jsonb_fallbacks"))
	rowsVec, rowsFB := float64(oq.Get("rows_vectorized")), float64(oq.Get("rows_batch_fallback"))
	tasks, submitMisses := float64(oq.Get("sched_tasks_run")), float64(oq.Get("sched_submit_misses"))
	commitS, commits := oi.histSum["manifest_commit_seconds"], oi.histCount["manifest_commit_seconds"]

	scanSelfMS := self["storage.scan"] / 1e6
	pipelineMS := (self["engine.pipeline"] + self["query.run"]) / 1e6
	libQueries := float64(p.libQueries)
	overhead := q.OverheadMS
	wireBytes, wireRows := q.WireBytes, q.WireRows
	if p.sz.Mode != modeServe {
		overhead = p.served.OverheadMS
		wireBytes, wireRows = p.served.Bytes, p.served.Rows
	}
	return map[string]float64{
		// Informational here, not gated end to end: one Compact() of a
		// benchmark-sized table lasts milliseconds and its rate varies
		// severalfold from run to run (README.md, "Spread").
		"compact_mb_per_s":                    median(in.CompactMBps),
		"jsontape.parse_mb_per_s":             lp.ParseMBps,
		"jsontape.parse_ns_per_doc":           lp.ParseNsPerDoc,
		"jsontape.tree_fallback_docs":         float64(oi.Get("ingest_docs_tree_fallback") + oq.Get("ingest_docs_tree_fallback")),
		"fpgrowth.mine_us_per_tile":           lp.MineUsPerTile,
		"fpgrowth.itemsets_per_tile":          lp.ItemsetsPerTile,
		"reorder.partition_us_per_doc":        lp.ReorderUsPerDoc,
		"tile.build_us_per_doc":               lp.BuildUsPerDoc,
		"tile.columns_per_tile":               lp.ColumnsPerTile,
		"jsonb.encode_us_per_doc":             lp.EncodeUsPerDoc,
		"jsonb.bytes_per_input_byte":          lp.JSONBBytesPerInputByte,
		"lz4.compress_mb_per_s":               lp.LZ4CompressMBps,
		"lz4.decompress_mb_per_s":             lp.LZ4DecompressMBps,
		"lz4.ratio":                           lp.LZ4Ratio,
		"segment.write_mb_per_s":              lp.SegWriteMBps,
		"segment.open_requests":               lp.SegOpenRequests,
		"segment.open_ms":                     lp.SegOpenMS,
		"segment.column_decode_ns_per_value":  lp.ColDecodeNsPerValue,
		"segment.docs_decode_ns_per_doc":      lp.DocsDecodeNsPerDoc,
		"manifest.commit_ms":                  ratio(commitS*1e3, float64(commits)),
		"blockstore.range_reads_per_query":    ratio(float64(sc.reads), queries),
		"blockstore.bytes_read_per_query":     ratio(float64(sc.readBytes), queries),
		"blockstore.wait_ms_per_query":        ratio(float64(sc.readNs+sc.sizeNs)/1e6, queries),
		"blockstore.coalesced_per_query":      ratio(float64(oq.Get("store_read_coalesced")), queries),
		"blockstore.prefetch_hit_ratio":       ratio(float64(oq.Get("store_prefetch_hits")), hits+misses+float64(oq.Get("store_prefetch_hits"))),
		"blockstore.retries":                  float64(oq.Get("store_retries")),
		"blockstore.puts_per_flush":           ratio(float64(p.ingestStore.puts), float64(in.Flushes)),
		"blockstore.bytes_put_per_input_byte": ratio(putBytes, float64(in.InputBytes)),
		"bufpool.hit_ratio":                   ratio(hits, hits+misses),
		"bufpool.misses_per_query":            ratio(misses, queries),
		"bufpool.evictions_per_query":         ratio(float64(oq.Get("bufpool_evictions")), queries),
		"bufpool.resident_mb":                 float64(q.PoolResident) / 1e6,
		"storage.scan_self_ms_per_query":      ratio(scanSelfMS, libQueries),
		"storage.scan_rows_per_s":             ratio(float64(p.libRows), scanSelfMS/1e3),
		"storage.tile_skip_ratio":             ratio(skipped, scanned+skipped),
		"storage.column_hit_ratio":            ratio(colHits, colHits+fallbacks),
		"storage.batch_fallback_ratio":        ratio(rowsFB, rowsVec+rowsFB),
		"storage.morsels_per_query":           ratio(float64(oq.Get("morsels_dispatched")), queries),
		"storage.compact_bytes_rewritten":     float64(in.CompactBytes),
		"vec.cmp_rows_per_s":                  lp.VecCmpRowsPerS,
		"vec.like_rows_per_s":                 lp.VecLikeRowsPerS,
		"vec.sum_rows_per_s":                  lp.VecSumRowsPerS,
		"engine.pipeline_ms_per_query":        ratio(pipelineMS, libQueries),
		"engine.groupby_rows_per_s":           lp.GroupByRowsPerS,
		"engine.hashjoin_rows_per_s":          lp.HashJoinRowsPerS,
		"engine.topk_rows_per_s":              lp.TopKRowsPerS,
		"optimizer.explain_us_per_query":      lp.ExplainUsPerQuery,
		"service.overhead_ms_per_query":       median(overhead),
		"service.wire_bytes_per_row":          ratio(float64(wireBytes), float64(wireRows)),
		"service.rejected_429":                float64(q.Rejected429),
		"service.queued":                      float64(oq.Get("admission_queued")),
		"sched.tasks_per_query":               ratio(tasks, queries),
		"sched.submit_miss_ratio":             ratio(submitMisses, tasks+submitMisses),
		"trace.overhead_ratio":                ratio(ratio(float64(p.opNs()), float64(p.ops())), ratio(float64(base.opNs()), float64(base.ops()))),
		"host.yardstick_ms":                   p.h.yard.typical(),
		"repo.nontest_go_loc":                 float64(loc),
		"fail_ratio":                          failRatio,
	}
}

func (p *pass) opNs() int64 { return p.ingest.OpNs + p.query.OpNs }
func (p *pass) ops() int {
	return p.ingest.Ops + p.query.Queries + p.query.Appends + p.query.Compactions
}

// finishMetrics attaches units and checks the emitted names against
// BENCHMARK.json: every declared metric must be present, and nothing
// undeclared may be emitted.
func finishMetrics(values map[string]float64, declared []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// timings collects every timed sample of a pass.
func timings(p *pass, setupS []float64) map[string]timing {
	keptAll, keptByClass, appendMS := latencies(p.query.kept(), p.query.HostShare)
	everyMS, _, _ := latencies(p.query.Blocks, 0)
	t := map[string]timing{
		"ingest_batch":     timingOf(p.ingest.AllBatchMS),
		"query":            timingOf(keptAll),
		"query_all_blocks": timingOf(everyMS),
		"table_open":       timingOf(p.query.OpenMS),
		"http_overhead":    timingOf(append(append([]float64(nil), p.query.OverheadMS...), p.served.OverheadMS...)),
		"append_batch":     timingOf(appendMS),
	}
	var setupMS []float64
	for _, s := range setupS {
		setupMS = append(setupMS, s*1e3)
	}
	t["setup"] = timingOf(setupMS)
	for class, l := range keptByClass {
		t["query/"+class] = timingOf(l)
	}
	return t
}

// printMetrics lists every metric by name with its unit, end-to-end
// metrics in BENCHMARK.json order.
func printMetrics(w io.Writer, title string, declared []metricSpec, m map[string]metricValue) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range declared {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

func (r *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "e2e"
	if r.Traced {
		kind = "traced"
	}
	// Repeated runs of one seed are numbered, so a directory holds a
	// whole set for `benchmark compare`.
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.%s.json", r.Workload, r.Seed, kind))
	for n := 2; ; n++ {
		if _, err := os.Stat(path); err != nil {
			break
		}
		path = filepath.Join(dir, fmt.Sprintf("%s.seed%d.%s.%d.json", r.Workload, r.Seed, kind, n))
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func newReport(spec *benchSpec, root, workload string, traced bool, seed int64, scale string, seconds, nproc int, sz sizes) *report {
	why := ""
	for _, w := range spec.Workloads {
		if w.Name == workload {
			why = w.Why
		}
	}
	return &report{
		Workload: workload, Why: why, Traced: traced, GitRev: gitRev(root), Seed: seed,
		Scale: scale, Seconds: seconds, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Sizes: sz,
	}
}

// layerSums folds span self times (ns by span name) into milliseconds
// by layer.
func layerSums(self map[string]float64) (byLayer, bySpan map[string]float64) {
	byLayer, bySpan = map[string]float64{}, map[string]float64{}
	for name, ns := range self {
		bySpan[name] = ns / 1e6
		byLayer[layerOf(name)] += ns / 1e6
	}
	return byLayer, bySpan
}

// counterDelta flattens the engine's own counters over the traced
// pass, for the record.
func counterDelta(sums ...*counterSum) map[string]int64 {
	out := map[string]int64{}
	for _, s := range sums {
		for k, v := range s.counters {
			if v != 0 {
				out[k] += v
			}
		}
	}
	return out
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
