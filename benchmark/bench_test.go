package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/storage"
)

// TestWorkloadsTiny runs every workload of BENCHMARK.json at the tiny
// scale, untraced and traced, and checks the contract between the
// spec and the harness: exactly the declared metric names with the
// declared units, no failed operation, and the per-workload
// properties the benchmark is built around.
func TestWorkloadsTiny(t *testing.T) {
	spec, root, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 4", len(spec.Workloads))
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			rep, err := runWorkload(spec, root, runOpts{
				workload: w.Name, seed: 7, seconds: spec.RunSeconds, traced: traced, scale: "tiny", outDir: out,
			}, &buf)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, buf.String())
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(rep.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", w.Name, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.Name, d.Name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if rep.Failed != 0 || rep.FailRatio != 0 || rep.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Failures)
			}
			if rep.Claim != nil {
				t.Errorf("%s: report claims %v; the benchmark claims nothing", w.Name, rep.Claim)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("%s: last output line is not the result object: %s", w.Name, last)
			}
			if !traced {
				continue
			}
			if _, err := os.Stat(rep.TraceFile); err != nil {
				t.Errorf("%s: no Chrome trace: %v", w.Name, err)
			}
			if c := rep.TraceCheck; c == nil || c.Ratio < 0.9 || c.Ratio > 1.1 {
				t.Errorf("%s: layer self times sum to %+v of the measured operation wall time, want within 10%%", w.Name, c)
			}
			v := func(name string) float64 { return rep.Metrics[name].Value }
			switch rep.Sizes.Mode {
			case modeCold:
				if v("bufpool.hit_ratio") != 0 {
					t.Errorf("%s: bufpool.hit_ratio = %v on first touch, want 0", w.Name, v("bufpool.hit_ratio"))
				}
				if v("blockstore.range_reads_per_query") == 0 || v("blockstore.wait_ms_per_query") == 0 {
					t.Errorf("%s: cold queries issued no store reads", w.Name)
				}
			case modeWarm:
				if v("blockstore.range_reads_per_query") != 0 {
					t.Errorf("%s: %v store reads per query after warm-up, want 0", w.Name, v("blockstore.range_reads_per_query"))
				}
				if v("bufpool.hit_ratio") < 0.99 {
					t.Errorf("%s: bufpool.hit_ratio = %v, want >= 0.99", w.Name, v("bufpool.hit_ratio"))
				}
			case modeServe:
				if v("service.wire_bytes_per_row") == 0 || v("service.overhead_ms_per_query") == 0 {
					t.Errorf("%s: no service-layer numbers", w.Name)
				}
			}
		}
	}
	// The reports written above are a run set `compare` can read, and a
	// set compared with itself has no regression.
	rs, err := loadRunSet(out)
	if err != nil {
		t.Fatal(err)
	}
	if rs.runs != 8 {
		t.Errorf("run set has %d reports, want 8", rs.runs)
	}
	if bad := compareSets(io.Discard, spec, rs, rs); bad != 0 {
		t.Errorf("a run set compared with itself shows %d regressions", bad)
	}
}

// TestSelfTimes pins the tracer's arithmetic: a span's self time is
// its duration minus what its children cover, concurrent innermost
// spans share an instant evenly, and an operation's self times sum to
// the wall time its spans cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Op: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 1, ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps a on [30,40]
		{Name: "leaf", Op: 1, ID: 3, Parent: 1, Start: 15, End: 25},
		// Another operation's span over the same interval shadows nothing.
		{Name: "other", Op: 2, ID: 4, Parent: -1, Start: 0, End: 100},
	}
	got := selfTimes(spans)
	want := map[string]float64{"root": 50, "a": 15, "b": 25, "leaf": 10, "other": 100}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if sum := got["root"] + got["a"] + got["b"] + got["leaf"]; math.Abs(sum-100) > 1e-9 {
		t.Errorf("self times of operation 1 sum to %v, want its wall time 100", sum)
	}
}

// TestTracerRecords checks begin/end bookkeeping, the nil tracer and
// pausing.
func TestTracerRecords(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 1, -1); id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(-1)
	tr := newTracer()
	root := tr.begin("root", 1, -1)
	child := tr.begin("child", 1, root)
	tr.pause(true)
	if id := tr.begin("dropped", 1, root); id != -1 {
		t.Errorf("paused tracer recorded a span")
	}
	tr.pause(false)
	tr.end(child)
	tr.end(root)
	open := tr.begin("never-closed", 1, -1)
	_ = open
	spans := tr.closed()
	if len(spans) != 2 || spans[0].Name != "root" || spans[1].Parent != root {
		t.Fatalf("closed spans = %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}

// TestWrappersTransparent loads a small table and runs every twitter
// class over it twice — directly, and through the tracing store and
// relation wrappers with an empty pool — and requires identical
// answers, spans from both wrappers, and store counts that agree with
// the wrapped store's own.
func TestWrappersTransparent(t *testing.T) {
	sz, err := sizesFor("cold-remote-twitter", "tiny", 10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genCorpus(sz, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{nproc: 2, seed: 3, corpus: c}
	p := &pass{h: h, sz: sz}
	if err := p.ingestPass(0); err != nil {
		t.Fatal(err)
	}
	if err := p.compactRep(); err != nil {
		t.Fatal(err)
	}
	open := func(store blockstore.Store) *storage.DirTable {
		dt, err := storage.OpenDirStore(tableName, store, bufpool.New(sz.PoolBytes), storage.DefaultLoaderConfig(), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	plain := open(p.inner)
	defer plain.Close()

	tr := newTracer()
	ref := newOpRef()
	fake := blockstore.NewFakeS3(p.inner, blockstore.FakeS3Config{})
	ts := &tracedStore{inner: fake, tr: tr, ref: ref}
	if ts.Label() != fake.Label() {
		t.Errorf("wrapper changed the store label: %q vs %q", ts.Label(), fake.Label())
	}
	wrappedTable := open(ts)
	defer wrappedTable.Close()
	counts := &relCounts{}
	wrapped := &tracedRel{inner: wrappedTable, tr: tr, ref: ref, n: counts}
	if wrapped.NumRows() != plain.NumRows() || wrapped.Name() != plain.Name() {
		t.Errorf("wrapper changed the relation's identity")
	}
	for _, class := range libraryClasses("twitter") {
		want := class.run(plain, 2)
		got := class.run(wrapped, 2)
		if err := sameResult(got, want); err != nil {
			t.Errorf("class %s differs through the wrappers: %v", class.name, err)
		}
	}
	if got, want := ts.counts().reads, fake.RangeReadCount(); got != want || got == 0 {
		t.Errorf("traced store counted %d reads, the store itself %d", got, want)
	}
	if got, want := ts.counts().readBytes, fake.BytesRead(); got != want {
		t.Errorf("traced store counted %d bytes, the store itself %d", got, want)
	}
	names := map[string]int{}
	for _, s := range tr.closed() {
		names[s.Name]++
	}
	for _, name := range []string{"blockstore.read", "blockstore.size", "storage.scan", "engine.pipeline"} {
		if names[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if counts.rows.Load() == 0 || counts.emitNs.Load() > counts.scanNs.Load() {
		t.Errorf("relation counters: rows=%d emit=%dns scan=%dns", counts.rows.Load(), counts.emitNs.Load(), counts.scanNs.Load())
	}
	if err := wrappedTable.Err(); err != nil {
		t.Errorf("scan error through the wrappers: %v", err)
	}
}

// TestCompareVerdicts feeds compare two synthetic run sets.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
			{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
			{Name: "wire_bytes_per_query", Unit: "bytes", Better: "lower", Bound: 0.02},
		},
		PerLayer: []metricSpec{{Name: "vec.cmp_rows_per_s", Unit: "1/s", Better: "higher"}},
	}
	set := func(p50, qps, wire []float64) *runSet {
		return &runSet{runs: len(p50), nproc: 2, values: map[string]map[string][]float64{"w": {
			"query_p50_ms": p50, "queries_per_s": qps, "wire_bytes_per_query": wire, "vec.cmp_rows_per_s": {1e8},
		}}}
	}
	parent := set([]float64{10, 10.1, 9.9, 10, 10.2}, []float64{100, 101, 99, 100, 102}, []float64{5000, 5000, 5000, 5000, 5000})
	cases := []struct {
		name   string
		change *runSet
		bad    int
		want   []string
	}{
		{"same", parent, 0, []string{"unchanged", "same"}},
		{"latency up 40%", set([]float64{14, 14.1, 13.9, 14, 14.2}, []float64{100, 101, 99, 100, 102}, []float64{5000, 5000, 5000, 5000, 5000}), 1, []string{"REGRESSED"}},
		{"throughput down 40%", set([]float64{10, 10.1, 9.9, 10, 10.2}, []float64{60, 61, 59, 60, 62}, []float64{5000, 5000, 5000, 5000, 5000}), 1, []string{"REGRESSED"}},
		{"noisy but not worse", set([]float64{6, 14, 10, 7, 13}, []float64{100, 101, 99, 100, 102}, []float64{5000, 5000, 5000, 5000, 5000}), 0, []string{"unresolved"}},
		{"count moved 2%", set([]float64{10, 10.1, 9.9, 10, 10.2}, []float64{100, 101, 99, 100, 102}, []float64{5100, 5100, 5100, 5100, 5100}), 1, []string{"COUNT MOVED"}},
		{"faster", set([]float64{5, 5.1, 4.9, 5, 5.2}, []float64{200, 201, 199, 200, 202}, []float64{5000, 5000, 5000, 5000, 5000}), 0, []string{"better"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if bad := compareSets(&buf, spec, parent, c.change); bad != c.bad {
			t.Errorf("%s: %d regressions, want %d\n%s", c.name, bad, c.bad, buf.String())
		}
		for _, w := range c.want {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("%s: no %q verdict in\n%s", c.name, w, buf.String())
			}
		}
	}
}

// TestQuartileSpread matches Python's statistics.quantiles(n=4), which
// the benchmark's contract uses: for 1..10 the quartiles are 2.75,
// 5.5 and 8.25.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestHostFactor pins the arithmetic that brings a time to the
// reference machine's speed: no yardstick or a nominal reading leaves
// it alone, only the given share of it scales with the reading, and
// the block statistics rank and report blocks by their scaled times.
func TestHostFactor(t *testing.T) {
	for _, c := range []struct{ yard, share, want float64 }{
		{0, 1, 1}, {yardNominalMS, 0.9, 1}, {2 * yardNominalMS, 1, 2}, {2 * yardNominalMS, 0.5, 1.5}, {2 * yardNominalMS, 0, 1},
	} {
		if got := hostFactor(c.yard, c.share); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hostFactor(%v, %v) = %v, want %v", c.yard, c.share, got, c.want)
		}
	}
	// The second block ran while the host was twice as slow: at the
	// reference speed it is the faster one.
	q := queryStats{HostShare: 1, Blocks: []block{
		{WallNs: 100, MS: []float64{10}, Classes: []string{"a"}, YardMS: yardNominalMS},
		{WallNs: 160, MS: []float64{16}, Classes: []string{"a"}, AppendMS: []float64{16}, YardMS: 2 * yardNominalMS},
	}}
	kept := q.kept()
	if len(kept) != 1 || kept[0].WallNs != 160 {
		t.Fatalf("kept = %+v, want the block of 160 ns", kept)
	}
	all, _, appends := latencies(kept, q.HostShare)
	if all[0] != 8 || math.Abs(appends[0]-16/hostFactor(2*yardNominalMS, hostShareIngest)) > 1e-12 {
		t.Errorf("scaled latency %v and append %v, want 8 and 16 over the ingest share's factor", all, appends)
	}
	if raw, _, _ := latencies(kept, 0); raw[0] != 16 {
		t.Errorf("share 0 gives %v, want the clock's 16", raw)
	}
}

// TestDescribeCorpus checks that the descriptor tells the three
// corpora apart the way the workloads rely on.
func TestDescribeCorpus(t *testing.T) {
	describe := func(workload string) corpusInfo {
		sz, err := sizesFor(workload, "tiny", 10, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genCorpus(sz, 5)
		if err != nil {
			t.Fatal(err)
		}
		info, err := describeCorpus(c.lines)
		if err != nil {
			t.Fatal(err)
		}
		if info.Docs != len(c.lines) || info.Bytes != c.bytes {
			t.Errorf("%s: descriptor counts %d docs / %d bytes, corpus has %d / %d", workload, info.Docs, info.Bytes, len(c.lines), c.bytes)
		}
		return info
	}
	tw, tp, ye := describe("ingest-twitter"), describe("warm-tpch"), describe("serve-mixed-yelp")
	if tw.NestingClass != "nested" || tp.NestingClass != "flat" {
		t.Errorf("nesting: twitter %s (depth %d), tpch %s (depth %d)", tw.NestingClass, tw.MaxDepth, tp.NestingClass, tp.MaxDepth)
	}
	if tp.MaxDepth != 1 || tw.MaxDepth < 4 {
		t.Errorf("max depth: tpch %d, twitter %d", tp.MaxDepth, tw.MaxDepth)
	}
	if len(tp.DocTypes) != 8 {
		t.Errorf("tpch has %d document types, want its 8 tables: %v", len(tp.DocTypes), tp.DocTypes)
	}
	if len(ye.DocTypes) < 5 {
		t.Errorf("yelp has %d document types, want at least 5: %v", len(ye.DocTypes), ye.DocTypes)
	}
	if tw.SizeTier == "" || tw.ContentClass == "" || tw.RedundancyClass == "" {
		t.Errorf("twitter classes missing: %+v", tw)
	}
	for _, info := range []corpusInfo{tw, tp, ye} {
		if info.KeyShare <= 0 || info.KeyShare >= 1 || info.TextualShare <= info.NumericShare {
			t.Errorf("byte shares: %+v", info)
		}
	}
}

// TestSizesScale checks that operation counts follow --seconds and the
// traced share, and that corpora do not.
func TestSizesScale(t *testing.T) {
	a, _ := sizesFor("warm-tpch", "full", 10, 2, 1)
	b, _ := sizesFor("warm-tpch", "full", 20, 2, 1)
	q, _ := sizesFor("warm-tpch", "full", 10, 2, tracedShare)
	if b.QueryRounds != 2*a.QueryRounds || q.QueryRounds*4 > a.QueryRounds+4 {
		t.Errorf("rounds: 10 s %d, 20 s %d, traced %d", a.QueryRounds, b.QueryRounds, q.QueryRounds)
	}
	if a.TPCHScale != b.TPCHScale || a.TPCHScale != q.TPCHScale {
		t.Errorf("corpus size changed with the run length")
	}
	if _, err := sizesFor("no-such-workload", "full", 10, 2, 1); err == nil {
		t.Errorf("unknown workload accepted")
	}
}
