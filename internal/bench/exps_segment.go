package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/storage"
)

// segBenchFile is where the seg experiment records its measurements
// (committed next to EXPERIMENTS.md as the persistence baseline).
const segBenchFile = "BENCH_segment.json"

// segResult is one query row of the recorded baseline: the same
// pipeline over the in-memory tiles, over a cold-opened segment (open
// + query with an empty buffer pool, per repetition), and over a warm
// segment (pool already holds every accessed block).
type segResult struct {
	Query     string  `json:"query"`
	MemSecs   float64 `json:"mem_secs"`
	ColdSecs  float64 `json:"cold_secs"`
	WarmSecs  float64 `json:"warm_secs"`
	WarmVsMem float64 `json:"warm_vs_mem"`
}

type segReport struct {
	Workload     string      `json:"workload"`
	Rows         int         `json:"rows"`
	Workers      int         `json:"workers"`
	SegmentBytes int64       `json:"segment_bytes"`
	RawJSONBytes int64       `json:"raw_json_bytes"`
	SegVsRawJSON float64     `json:"segment_vs_raw_json"`
	Results      []segResult `json:"results"`
	// Metrics is the process-wide instrument delta over the experiment.
	Metrics obs.Snapshot `json:"metrics"`
}

// segExp — segment persistence: the vec experiment's pipelines over
// (a) the in-memory tiles relation, (b) a segment file cold-opened
// with an empty buffer pool every repetition, and (c) the same open
// segment once the pool is warm; plus the segment file's size against
// the raw newline-delimited JSON it was loaded from. Records the
// baseline to BENCH_segment.json.
func segExp(w io.Writer, c *Context) error {
	workers := c.Opts.workers()
	metricsBase := obs.Default.Snapshot()
	lines := c.lineitemLines()
	rel := c.relation("tpch-lineitem", storage.KindTiles, c.lineitemLines)

	dir, err := os.MkdirTemp("", "jtbench-seg")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := blockstore.NewFS(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	const object = "lineitem.seg"
	if err := storage.WriteSegmentStore(store, object, rel); err != nil {
		return err
	}
	segBytes, err := store.Size(object)
	if err != nil {
		return err
	}
	var rawBytes int64
	for _, l := range lines {
		rawBytes += int64(len(l)) + 1
	}

	// The warm relation stays open across queries; its pool is big
	// enough that nothing accessed is ever evicted.
	warm, err := storage.OpenSegmentStore("lineitem", store, object, 0, bufpool.New(1<<30), c.loaderConfig())
	if err != nil {
		return err
	}
	defer warm.Close()

	report := segReport{
		Workload: "tpch-lineitem", Rows: rel.NumRows(), Workers: workers,
		SegmentBytes: segBytes, RawJSONBytes: rawBytes,
		SegVsRawJSON: float64(segBytes) / maxf(float64(rawBytes), 1),
	}
	t := &table{header: []string{"query", "mem s", "cold s", "warm s", "warm/mem"}}
	for _, q := range vecQueries() {
		memD := c.timeIt(func() { q.run(rel, workers) })
		coldD := c.timeIt(func() {
			cold, err := storage.OpenSegmentStore("lineitem", store, object, 0, bufpool.New(0), c.loaderConfig())
			if err != nil {
				panic(err)
			}
			q.run(cold, workers)
			cold.Close()
		})
		q.run(warm, workers) // prime the pool
		warmD := c.timeIt(func() { q.run(warm, workers) })
		ratio := warmD.Seconds() / maxf(memD.Seconds(), 1e-9)
		t.row(q.name, secs(memD), secs(coldD), secs(warmD), fmt.Sprintf("%.2fx", ratio))
		report.Results = append(report.Results, segResult{
			Query: q.name, MemSecs: memD.Seconds(), ColdSecs: coldD.Seconds(),
			WarmSecs: warmD.Seconds(), WarmVsMem: ratio,
		})
	}
	t.write(w)
	fmt.Fprintf(w, "segment %d B, raw JSON %d B (%.0f%%)\n",
		report.SegmentBytes, report.RawJSONBytes, 100*report.SegVsRawJSON)

	report.Metrics = obs.Default.Snapshot().Diff(metricsBase)
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	path := filepath.Join(c.Opts.OutDir, segBenchFile)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline written to %s\n", path)
	return nil
}
