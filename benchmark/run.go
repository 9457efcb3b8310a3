package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how often set-up — generating the corpus from the seed
// and describing it — is repeated; setup_s is the median.
const setupReps = 9

// tracedShare is the share of the operation count the traced passes
// run.
const tracedShare = 0.25

// result is the last line a workload run prints: what the driver
// reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload in this process: set-up, the measured
// pass (or, traced, an untraced and a traced pass at a quarter of the
// operations plus the layer probes), the oracle, the report. It
// returns an error when any operation failed.
func runWorkload(spec *benchSpec, root string, o runOpts, w io.Writer) (*report, error) {
	if !spec.hasWorkload(o.workload) {
		return nil, fmt.Errorf("workload %q is not in BENCHMARK.json", o.workload)
	}
	started := time.Now()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	share := 1.0
	if o.traced {
		share = tracedShare
	}
	sz, err := sizesFor(o.workload, o.scale, o.seconds, nproc, share)
	if err != nil {
		return nil, err
	}
	rep := newReport(spec, root, o.workload, o.traced, o.seed, o.scale, o.seconds, nproc, sz)
	yard, err := newYardstick()
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	defer yard.close() // the mapping is only read; nothing is lost if unmapping fails
	h := &harness{nproc: nproc, seed: o.seed, yard: yard}

	// setupS is every repetition as the clock read it, setupRef the same
	// at the reference machine's speed.
	var setupS, setupRef []float64
	for i := 0; i < setupReps; i++ {
		host := hostFactor(yard.read(), hostShareSetup)
		t0 := time.Now()
		c, err := genCorpus(sz, o.seed)
		if err != nil {
			return nil, err
		}
		if rep.Corpus, err = describeCorpus(c.lines); err != nil {
			return nil, err
		}
		setupS = append(setupS, secondsSince(t0))
		setupRef = append(setupRef, secondsSince(t0)/host)
		h.corpus = c
	}

	var declared []metricSpec
	var values map[string]float64
	p := &pass{h: h, sz: sz}
	if !o.traced {
		if err := p.run(); err != nil {
			return nil, err
		}
		// Before the oracle, whose raw-JSON scans are not the engine's
		// footprint, and without the yardstick's buffer.
		rss := peakRSSMB() - yardBytes/(1<<20)
		if err := runOracle(h, p); err != nil {
			return nil, err
		}
		declared, values = spec.EndToEnd, endToEnd(p, setupRef, rss)
	} else {
		// The same operations twice: tracing off, then on. Their ratio
		// is the tracing overhead; the per-layer numbers come from the
		// second.
		base := p
		if err := base.run(); err != nil {
			return nil, err
		}
		tr := newTracer()
		p = &pass{h: h, sz: sz, tr: tr}
		if err := p.run(); err != nil {
			return nil, err
		}
		lp, err := runLayerProbes(h.corpus.lines, sz, p.inner, tr)
		if err != nil {
			return nil, err
		}
		if err := runOracle(h, p); err != nil {
			return nil, err
		}
		spans := tr.closed()
		self := selfTimes(spans)
		rep.LayerSelfMS, rep.SpanSelfMS = layerSums(self)
		var opSpans []span
		for _, s := range spans {
			if s.Op > 0 {
				opSpans = append(opSpans, s)
			}
		}
		attributed := 0.0
		for _, ns := range selfTimes(opSpans) {
			attributed += ns
		}
		opWall := float64(p.opNs() + p.probeNs)
		rep.TraceCheck = &traceCheck{AttributedMS: attributed / 1e6, OpWallMS: opWall / 1e6, Ratio: ratio(attributed, opWall)}
		rep.Counters = counterDelta(&p.obsIngest, &p.obsQuery)
		rep.TraceFile = filepath.Join(o.outDir, fmt.Sprintf("%s.seed%d.trace.json", o.workload, o.seed))
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeChromeTrace(rep.TraceFile, spans); err != nil {
			return nil, err
		}
		loc, err := nonTestGoLOC(root, spec.Paths)
		if err != nil {
			return nil, err
		}
		failRatio := ratio(float64(h.failed.Load()), float64(h.attempted.Load()))
		declared, values = spec.PerLayer, perLayer(p, base, lp, self, loc, failRatio)
	}

	rep.Metrics, err = finishMetrics(values, declared)
	if err != nil {
		return nil, err
	}
	rep.Ingest = ingestInfoOf(p)
	rep.Timings = timings(p, setupS)
	for _, b := range p.query.Blocks {
		rep.BlockWallMS = append(rep.BlockWallMS, float64(b.WallNs)/1e6)
		rep.BlockYardMS = append(rep.BlockYardMS, b.YardMS)
	}
	rep.Host = hostInfoOf(yard, p.query.HostShare)
	rep.MeasuredWallS = float64(p.ingest.OpNs+p.query.WallNs) / 1e9
	rep.Attempted, rep.Failed = h.attempted.Load(), h.failed.Load()
	rep.FailRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Failures = h.failures
	rep.TotalWallS = secondsSince(started)

	title := fmt.Sprintf("%s seed=%d seconds=%d nproc=%d %s — end-to-end (tracing off)", o.workload, o.seed, o.seconds, nproc, rep.GitRev)
	if o.traced {
		title = fmt.Sprintf("%s seed=%d seconds=%d nproc=%d %s — per layer (traced pass, ¼ of the operations)", o.workload, o.seed, o.seconds, nproc, rep.GitRev)
	}
	printMetrics(w, title, declared, rep.Metrics)
	fmt.Fprintf(w, "  measured %.2f s of %.2f s total; %d operations attempted, %d failed\n",
		rep.MeasuredWallS, rep.TotalWallS, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	path, err := rep.write(o.outDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  report: %s\n", path)

	line, err := json.Marshal(result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	if rep.Failed > 0 {
		return rep, fmt.Errorf("%s: %d of %d operations failed", o.workload, rep.Failed, rep.Attempted)
	}
	return rep, nil
}
