package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one place metric names, units,
// directions and regression bounds are fixed. The harness emits
// exactly these names and takes each unit from here.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from dir or the nearest parent that
// has one (the tests run inside benchmark/, the driver at the root).
func loadSpec(dir string) (*benchSpec, string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// Query-phase modes.
const (
	modeWarm  = "warm-library"   // one client, pool larger than the table, table opened once
	modeCold  = "cold-library"   // one client, every op opens the table with an empty pool
	modeServe = "served-mixed"   // nproc HTTP clients beside appends and compactions
	batchDocs = 2048             // documents per Insert…Flush batch
	poolLarge = int64(256 << 20) // a pool no benchmark table outgrows
)

// sizes fixes the work of one workload run. The values are constants
// chosen so that the measured part lasts about --seconds on the
// 2-core reference machine at the commit that added the benchmark;
// they scale with --seconds and nothing else — never with measured
// speed, so two commits always run the same operations.
type sizes struct {
	Corpus    string  `json:"corpus"`
	Docs      int     `json:"docs,omitempty"`
	TPCHScale float64 `json:"tpch_scale_factor,omitempty"`
	BatchDocs int     `json:"batch_docs"`

	// IngestPasses is how many times the corpus is loaded into a
	// fresh store; CompactReps how many times the last pass's
	// uncompacted segments are copied and compacted.
	IngestPasses int `json:"ingest_passes"`
	CompactReps  int `json:"compact_reps"`

	Mode string `json:"query_mode"`
	// Parts is the number of parts the query phase is run in, with the
	// rest of the ingest work between them.
	Parts int `json:"query_parts"`
	// QueryRounds is the number of timed rounds over every library
	// class (warm and cold modes), all parts together.
	QueryRounds int `json:"query_rounds,omitempty"`
	// PoolBytes bounds the buffer pool of the query phase.
	PoolBytes int64 `json:"pool_bytes"`
	// StoreLatency and StoreMBps shape the FakeS3 store the query
	// phase reads through (0 = no injected delay).
	StoreLatency time.Duration `json:"store_latency_ns"`
	StoreMBps    int64         `json:"store_mb_per_s"`

	// Served-mixed mode: every part is an epoch that starts from a copy
	// of the loaded table, in which each of Actors closed-loop clients
	// runs EpochCycles append cycles of AppendEvery operations, the
	// last of them a BatchDocs append; every CompactEvery-th append of
	// the epoch is followed by Compact().
	Actors       int `json:"actors,omitempty"`
	EpochCycles  int `json:"epoch_cycles,omitempty"`
	AppendEvery  int `json:"append_every,omitempty"`
	CompactEvery int `json:"compact_every,omitempty"`

	// AllocPerDoc makes a document, not a query, the operation that
	// alloc_bytes_per_op divides by (the ingest workload).
	AllocPerDoc bool `json:"alloc_per_doc,omitempty"`

	// ServedRounds is how often each served class is POSTed in the
	// untimed served check of the library workloads.
	ServedRounds int `json:"served_rounds"`
}

// appendBatches is the number of batches one epoch appends.
func (s sizes) appendBatches() int {
	if s.Mode != modeServe {
		return 0
	}
	return s.Actors * s.EpochCycles
}

// sizesFor returns the constants of a workload at the given scale
// ("full" or "tiny"), run length and share of the operation count
// (1 for the untraced pass, ¼ for the traced passes).
func sizesFor(workload, scale string, seconds int, nproc int, share float64) (sizes, error) {
	// Counts that scale with the run length; a count never drops
	// below min.
	n := func(perTenSeconds float64, min int) int {
		v := int(math.Round(perTenSeconds * float64(seconds) / 10 * share))
		if v < min {
			v = min
		}
		return v
	}
	tiny := scale == "tiny"
	if !tiny && scale != "full" {
		return sizes{}, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
	}
	s := sizes{BatchDocs: batchDocs, PoolBytes: poolLarge, ServedRounds: 2}
	s.IngestPasses, s.CompactReps, s.Parts = n(3, 1), n(9, 1), n(6, 2)
	switch workload {
	case "ingest-twitter":
		s.Corpus, s.Docs, s.Mode = "twitter", 40_000, modeWarm
		s.AllocPerDoc = true
		s.QueryRounds = n(45, 2)
	case "cold-remote-twitter":
		s.Corpus, s.Docs, s.Mode = "twitter", 8_000, modeCold
		s.IngestPasses = n(4, 1)
		s.QueryRounds = n(45, 2)
		// About 40 % of the table's decompressed blocks. A pool that
		// cannot hold the blocks two scan workers and their prefetchers
		// touch at once re-reads them in a timing-dependent way.
		s.PoolBytes = 1 << 20
		s.StoreLatency, s.StoreMBps = time.Millisecond, 200
	case "warm-tpch":
		s.Corpus, s.TPCHScale, s.Mode = "tpch", 0.002, modeWarm
		s.QueryRounds = n(45, 2)
	case "serve-mixed-yelp":
		s.Corpus, s.Docs, s.Mode = "yelp", 42_000, modeServe
		s.Actors = nproc
		s.Parts = n(8, 2)
		// 98 queries and an append: every cycle is a whole number of
		// permutations of the seven served classes, so every class is
		// asked equally often whatever the seed.
		s.EpochCycles, s.AppendEvery, s.CompactEvery = 2, 99, 2
	default:
		return sizes{}, fmt.Errorf("unknown workload %q", workload)
	}
	if tiny {
		// The test scale: the same code paths over a few thousand
		// documents and a handful of rounds.
		s.IngestPasses = 1
		s.CompactReps = 1
		s.Parts = 2
		if s.Mode != modeServe {
			s.QueryRounds = 2
		}
		s.ServedRounds = 1
		s.BatchDocs = 512 // enough segments for Compact to have work
		switch s.Corpus {
		case "twitter":
			s.Docs = 2_000
			if s.Mode == modeCold {
				s.PoolBytes = 128 << 10
			}
		case "tpch":
			s.TPCHScale = 0.0003
		case "yelp":
			s.Docs = 4_000
			s.EpochCycles, s.AppendEvery = 2, 15
		}
	}
	return s, nil
}
