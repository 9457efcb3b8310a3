package storage

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/vec"
)

// --- scheduler unit tests ---------------------------------------------------

// TestMorselRangeCoversAll: every index in [0, n) is visited exactly
// once, and worker ids stay dense in [0, workers), for a grid of
// shapes including n < workers, n == 0, and n not divisible by the
// morsel size.
func TestMorselRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 257, 1000, 5000} {
		for _, workers := range []int{1, 2, 3, 8, 17} {
			seen := make([]int32, n)
			var mu sync.Mutex
			morselRange(context.Background(), n, workers, func(w, lo, hi int) {
				if w < 0 || w >= workers {
					t.Errorf("n=%d workers=%d: worker id %d out of range", n, workers, w)
				}
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d workers=%d: bad range [%d,%d)", n, workers, lo, hi)
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestMorselSizeFor(t *testing.T) {
	cases := []struct {
		n, workers, target, want int
	}{
		// Large input: the target stands.
		{1 << 20, 4, DefaultMorselRows, DefaultMorselRows},
		// Small input shrinks the morsel so each worker gets ~4 pulls.
		{32 << 10, 8, DefaultMorselRows, 32 << 10 / (8 * morselsPerWorker)},
		// ...but never below the floor.
		{1000, 8, DefaultMorselRows, minRowsPerMorsel},
		// Serial execution keeps the target (no point shrinking).
		{1000, 1, DefaultMorselRows, DefaultMorselRows},
	}
	for _, c := range cases {
		if got := morselSizeFor(c.n, c.workers, c.target); got != c.want {
			t.Errorf("morselSizeFor(%d, %d, %d) = %d, want %d", c.n, c.workers, c.target, got, c.want)
		}
	}
}

// checkCoverage fails unless the morsels cover every tile exactly once.
func checkCoverage(t *testing.T, label string, rowCounts []int, ms []morsel) {
	t.Helper()
	cover := make([]int, len(rowCounts))
	for _, m := range ms {
		for ti := m.lo; ti < m.hi; ti++ {
			cover[ti]++
		}
	}
	for ti, c := range cover {
		if c != 1 {
			t.Fatalf("%s: tile %d covered %d times", label, ti, c)
		}
	}
}

func TestBuildTileMorselsBatchesTinyTiles(t *testing.T) {
	// 64 tiles of 8 rows with a 128-row target: consecutive tiles are
	// batched ~16 per morsel instead of 64 single-tile morsels.
	rowCounts := make([]int, 64)
	for i := range rowCounts {
		rowCounts[i] = 8
	}
	ms := buildTileMorsels(rowCounts, 1, 128)
	checkCoverage(t, "tiny tiles", rowCounts, ms)
	if len(ms) >= 16 {
		t.Fatalf("tiny tiles produced %d morsels, want batched (< 16)", len(ms))
	}
}

func TestBuildTileMorselsCoversHugeTile(t *testing.T) {
	// One 10000-row tile among small ones, 512-row target: the big tile
	// stays whole (a batch aliases one tile's columns) and is covered
	// once.
	rowCounts := []int{100, 10000, 100}
	checkCoverage(t, "huge tile", rowCounts, buildTileMorsels(rowCounts, 4, 512))
}

func TestBuildTileMorselsEmptyAndZeroTiles(t *testing.T) {
	if ms := buildTileMorsels(nil, 4, 512); len(ms) != 0 {
		t.Fatalf("no tiles produced %d morsels", len(ms))
	}
	// Zero-row tiles ride along in whole-tile runs.
	rowCounts := []int{0, 5, 0, 0, 7, 0}
	checkCoverage(t, "zero tiles", rowCounts, buildTileMorsels(rowCounts, 2, 4))
}

// --- cross-worker scan conformance ------------------------------------------

// skewedDocs builds n documents with a mix of typed fields.
func skewedDocs(start, n int) [][]byte {
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		id := start + i
		out[i] = []byte(fmt.Sprintf(`{"id":%d,"grp":"g-%d","val":%g}`, id, id%7, float64(id)*0.5))
	}
	return out
}

// skewedTilesRel loads a deliberately skewed tiles relation: one huge
// tile (a big load with an oversized TileSize) concatenated with many
// tiny tiles, so static per-worker chunking would leave most workers
// idle behind the big tile.
func skewedTilesRel(t *testing.T) Relation {
	t.Helper()
	bigCfg := DefaultLoaderConfig()
	bigCfg.Tile.TileSize = 4096
	lb, _ := NewLoader(KindTiles, bigCfg)
	big, err := lb.Load("big", skewedDocs(0, 2500), 2)
	if err != nil {
		t.Fatal(err)
	}
	tinyCfg := DefaultLoaderConfig()
	tinyCfg.Tile.TileSize = 4
	lt, _ := NewLoader(KindTiles, tinyCfg)
	tiny, err := lt.Load("tiny", skewedDocs(2500, 500), 2)
	if err != nil {
		t.Fatal(err)
	}
	cc := Concat("skewed", big, tiny)
	if _, ok := cc.(*tilesRelation); !ok {
		t.Fatal("tiles+tiles concat did not merge natively")
	}
	return cc
}

func skewedAccesses() []Access {
	return []Access{
		NewAccess(expr.TBigInt, "id"),
		NewAccess(expr.TText, "grp"),
		NewAccess(expr.TFloat, "val"),
	}
}

// rowMultiset collects a row scan as a multiset.
func rowMultiset(rel Relation, accesses []Access, workers int) map[string]int {
	got := map[string]int{}
	var mu sync.Mutex
	scanRows(context.Background(), rel, accesses, workers, func(w int, row []expr.Value) {
		key := ""
		for _, v := range row {
			key += v.String() + "\x1f"
		}
		mu.Lock()
		got[key]++
		mu.Unlock()
	}, nil)
	return got
}

// batchMultiset collects a batch scan as the same multiset.
func batchMultiset(bs BatchScanner, accesses []Access, workers int) map[string]int {
	return batchMultisetStats(bs, accesses, workers, nil)
}

// batchMultisetStats is batchMultiset recording the scan's statistics
// into st.
func batchMultisetStats(bs BatchScanner, accesses []Access, workers int, st *obs.ScanStats) map[string]int {
	got := map[string]int{}
	var mu sync.Mutex
	bs.ScanBatches(context.Background(), accesses, workers, func(w int, b *vec.Batch) {
		rows := make([]string, 0, b.Rows())
		emit := func(i int) {
			key := ""
			for ci := range b.Cols {
				key += b.Cols[ci].Value(i).String() + "\x1f"
			}
			rows = append(rows, key)
		}
		if b.Sel != nil {
			for _, i := range b.Sel {
				emit(int(i))
			}
		} else {
			for i := 0; i < b.Len; i++ {
				emit(i)
			}
		}
		mu.Lock()
		for _, k := range rows {
			got[k]++
		}
		mu.Unlock()
	}, st)
	return got
}

var conformanceWorkers = []int{1, 2, 3, 8}

// TestMorselScanConformanceSkewedTiles: the skewed relation — and its
// directory-table round trip — returns the identical row multiset for
// every worker count, on both the row and batch scan paths.
func TestMorselScanConformanceSkewedTiles(t *testing.T) {
	rel := skewedTilesRel(t)
	accesses := skewedAccesses()
	want := rowMultiset(rel, accesses, 1)
	if len(want) != 3000 {
		t.Fatalf("ground truth has %d rows, want 3000", len(want))
	}

	check := func(label string, rel Relation) {
		t.Helper()
		for _, w := range conformanceWorkers {
			sameMultiset(t, fmt.Sprintf("%s rows workers=%d", label, w), rowMultiset(rel, accesses, w), want)
			if bs, ok := rel.(BatchScanner); ok {
				sameMultiset(t, fmt.Sprintf("%s batches workers=%d", label, w), batchMultiset(bs, accesses, w), want)
			}
		}
	}
	check("memory", rel)

	dt := memDir(t, DefaultLoaderConfig(), rel)
	check("dir", dt)
	var st obs.ScanStats
	batchMultisetStats(dt, accesses, 2, &st)
	if err := st.Err(); err != nil {
		t.Fatalf("directory table scan error: %v", err)
	}
}

// TestMorselScanConformanceAllFormats: every non-tile format serves
// the identical multiset across worker counts (their scans run
// through morselRange rather than tile morsels).
func TestMorselScanConformanceAllFormats(t *testing.T) {
	data := skewedDocs(0, 600)
	accesses := skewedAccesses()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	for _, k := range allKinds() {
		l, _ := NewLoader(k, cfg)
		rel, err := l.Load(string(k), data, 2)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want := rowMultiset(rel, accesses, 1)
		for _, w := range conformanceWorkers {
			sameMultiset(t, fmt.Sprintf("%s workers=%d", k, w), rowMultiset(rel, accesses, w), want)
		}
	}
}

// TestMorselScanConformanceDirTable: a multi-segment DirTable with
// skewed segment sizes (one big flush + several tiny ones) feeds one
// global morsel stream; results must not depend on the worker count,
// before or after compaction.
func TestMorselScanConformanceDirTable(t *testing.T) {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	dt, err := OpenDirStore("t", blockstore.NewMem(), nil, cfg, 4, false)
	if err != nil {
		t.Fatalf("OpenDirStore: %v", err)
	}
	defer dt.Close()

	appendBatch := func(start, n int) {
		t.Helper()
		rel, err := BuildTilesFromLines("batch", skewedDocs(start, n), cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := dt.AppendTiles(rel.(*tilesRelation).Tiles(), rel.Stats()); err != nil {
			t.Fatalf("AppendTiles: %v", err)
		}
	}
	appendBatch(0, 800) // one big segment
	next := 800
	for i := 0; i < 6; i++ { // six tiny segments
		appendBatch(next, 24)
		next += 24
	}

	accesses := skewedAccesses()
	want := rowMultiset(dt, accesses, 1)
	if len(want) != next {
		t.Fatalf("ground truth has %d rows, want %d", len(want), next)
	}
	for _, w := range conformanceWorkers {
		sameMultiset(t, fmt.Sprintf("dirtable workers=%d", w), rowMultiset(dt, accesses, w), want)
	}
	if _, err := dt.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for _, w := range conformanceWorkers {
		sameMultiset(t, fmt.Sprintf("compacted workers=%d", w), rowMultiset(dt, accesses, w), want)
	}
	if err := dt.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
}
