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

// compactBenchFile is where the compact experiment records its
// measurements (committed next to EXPERIMENTS.md as the multi-segment
// baseline).
const compactBenchFile = "BENCH_compact.json"

// compactBatch is one incremental load step: the cost of appending
// the batch to a multi-segment directory (one new segment + manifest
// commit — O(new data)) against the monolithic baseline of rewriting
// the whole table into a single segment file (O(table so far)).
type compactBatch struct {
	Batch       int     `json:"batch"`
	BatchRows   int     `json:"batch_rows"`
	TableRows   int     `json:"table_rows"`
	AppendSecs  float64 `json:"append_secs"`
	RewriteSecs float64 `json:"rewrite_secs"`
	Segments    int     `json:"segments_live"`
}

type compactQuery struct {
	Query       string  `json:"query"`
	BeforeSecs  float64 `json:"before_secs"`
	AfterSecs   float64 `json:"after_secs"`
	AfterBefore float64 `json:"after_vs_before"`
}

type compactReport struct {
	Workload         string         `json:"workload"`
	Rows             int            `json:"rows"`
	Workers          int            `json:"workers"`
	Batches          []compactBatch `json:"batches"`
	AppendTotalSecs  float64        `json:"append_total_secs"`
	RewriteTotalSecs float64        `json:"rewrite_total_secs"`
	Queries          []compactQuery `json:"queries"`
	SegmentsBefore   int            `json:"segments_before"`
	SegmentsAfter    int            `json:"segments_after"`
	CompactionRounds int            `json:"compaction_rounds"`
	CompactionsRun   int64          `json:"compactions_run"`
	BytesRewritten   int64          `json:"compaction_bytes_rewritten"`
	DirBytes         int            `json:"dir_bytes"`
	// Metrics is the process-wide instrument delta over the experiment.
	Metrics obs.Snapshot `json:"metrics"`
}

// compactExp — multi-segment tables: lineitem is loaded in 8
// incremental batches. Each batch is (a) appended to a DirTable as one
// new segment plus a manifest commit, and (b) for the baseline,
// rewritten together with everything before it into a fresh
// single-file segment — the cost a monolithic format pays for the same
// ingest. Then the vec query pipelines run over the 8-segment table,
// Compact() folds the segments, and the same queries run again.
// Records the baseline to BENCH_compact.json.
func compactExp(w io.Writer, c *Context) error {
	const numBatches = 8
	workers := c.Opts.workers()
	metricsBase := obs.Default.Snapshot()
	lines := c.lineitemLines()

	root, err := os.MkdirTemp("", "jtbench-compact")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	// Each table is an FS store of its own under root (closed after
	// the tables, by the first defer); the monolithic baseline writes
	// into root itself.
	var stores []blockstore.Store
	defer func() {
		for _, s := range stores {
			blockstore.Close(s)
		}
	}()
	openDir := func(name string, pool *bufpool.Pool) (*storage.DirTable, error) {
		s, err := blockstore.NewFS(filepath.Join(root, name+".jt"))
		if err != nil {
			return nil, err
		}
		stores = append(stores, s)
		return storage.OpenDirStore(name, s, pool, c.loaderConfig(), 0, false)
	}
	dt, err := openDir("lineitem", bufpool.New(1<<30))
	if err != nil {
		return err
	}
	defer dt.Close()

	// Appends mutate the table, so the timed repetitions go to a
	// scratch directory (append cost depends only on the batch, never
	// on what the directory already holds); the real append below runs
	// once, untimed.
	scratch, err := openDir("scratch", bufpool.New(0))
	if err != nil {
		return err
	}
	defer scratch.Close()
	mono, err := blockstore.NewFS(root)
	if err != nil {
		return err
	}
	defer mono.Close()

	loader, err := storage.NewLoader(storage.KindTiles, c.loaderConfig())
	if err != nil {
		return err
	}
	buildBatch := func(batchLines [][]byte) storage.Relation {
		rel, err := loader.Load("batch", batchLines, workers)
		if err != nil {
			panic(err)
		}
		return rel
	}

	report := compactReport{Workload: "tpch-lineitem", Rows: len(lines), Workers: workers}
	bt := &table{header: []string{"batch", "rows", "table rows", "append s", "rewrite s", "segments"}}
	per := (len(lines) + numBatches - 1) / numBatches
	var cumulative [][]byte
	for b := 0; b < numBatches; b++ {
		lo, hi := b*per, (b+1)*per
		if hi > len(lines) {
			hi = len(lines)
		}
		batchLines := lines[lo:hi]
		cumulative = append(cumulative, batchLines...)

		// Incremental append: build the batch's tiles (excluded from the
		// timing — both sides pay it), then time segment write + manifest
		// commit.
		rel := buildBatch(batchLines)
		ti := rel.(storage.TileIntrospector)
		appendD := c.timeIt(func() {
			if err := scratch.AppendTiles(ti.Tiles(), rel.Stats()); err != nil {
				panic(err)
			}
		})
		if err := dt.AppendTiles(ti.Tiles(), rel.Stats()); err != nil {
			return err
		}

		// Monolithic baseline: rewrite everything so far as one file.
		full := buildBatch(cumulative)
		rewriteD := c.timeIt(func() {
			if err := storage.WriteSegmentStore(mono, "mono.seg", full); err != nil {
				panic(err)
			}
		})

		row := compactBatch{
			Batch: b + 1, BatchRows: len(batchLines), TableRows: len(cumulative),
			AppendSecs: appendD.Seconds(), RewriteSecs: rewriteD.Seconds(),
			Segments: dt.NumSegments(),
		}
		report.Batches = append(report.Batches, row)
		report.AppendTotalSecs += row.AppendSecs
		report.RewriteTotalSecs += row.RewriteSecs
		bt.row(fmt.Sprint(row.Batch), fmt.Sprint(row.BatchRows), fmt.Sprint(row.TableRows),
			secs(appendD), secs(rewriteD), fmt.Sprint(row.Segments))
	}
	bt.write(w)
	fmt.Fprintf(w, "append total %.4fs vs monolithic rewrite total %.4fs (%.1fx)\n\n",
		report.AppendTotalSecs, report.RewriteTotalSecs,
		report.RewriteTotalSecs/maxf(report.AppendTotalSecs, 1e-9))

	// Queries over the fragmented table, then compaction, then the same
	// queries over the folded table.
	report.SegmentsBefore = dt.NumSegments()
	qt := &table{header: []string{"query", "fragmented s", "compacted s", "ratio"}}
	type qd struct{ before float64 }
	beforeTimes := map[string]qd{}
	for _, q := range vecQueries() {
		d := c.timeIt(func() { q.run(dt, workers) })
		beforeTimes[q.name] = qd{before: d.Seconds()}
	}

	runs0, bytes0 := obs.CompactionsRun.Load(), obs.CompactionBytesRewritten.Load()
	rounds, err := dt.Compact()
	if err != nil {
		return err
	}
	report.CompactionRounds = rounds
	report.CompactionsRun = obs.CompactionsRun.Load() - runs0
	report.BytesRewritten = obs.CompactionBytesRewritten.Load() - bytes0
	report.SegmentsAfter = dt.NumSegments()
	report.DirBytes = dt.SizeBytes()

	for _, q := range vecQueries() {
		d := c.timeIt(func() { q.run(dt, workers) })
		before := beforeTimes[q.name].before
		ratio := d.Seconds() / maxf(before, 1e-9)
		qt.row(q.name, fmt.Sprintf("%.4f", before), secs(d), fmt.Sprintf("%.2fx", ratio))
		report.Queries = append(report.Queries, compactQuery{
			Query: q.name, BeforeSecs: before, AfterSecs: d.Seconds(), AfterBefore: ratio,
		})
	}
	qt.write(w)
	fmt.Fprintf(w, "segments %d -> %d in %d rounds (%d merges, %d B rewritten), dir %d B\n",
		report.SegmentsBefore, report.SegmentsAfter, report.CompactionRounds,
		report.CompactionsRun, report.BytesRewritten, report.DirBytes)

	report.Metrics = obs.Default.Snapshot().Diff(metricsBase)
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	path := filepath.Join(c.Opts.OutDir, compactBenchFile)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline written to %s\n", path)
	return nil
}
