package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/vec"
)

// dirTestBatch builds one flush-worth of tiles plus statistics from
// JSON lines.
func dirTestBatch(t *testing.T, lines []string) ([]*tile.Tile, *stats.TableStats) {
	t.Helper()
	raw := make([][]byte, len(lines))
	for i, l := range lines {
		raw[i] = []byte(l)
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	rel, err := BuildTilesFromLines("batch", raw, cfg, 2)
	if err != nil {
		t.Fatalf("BuildTilesFromLines: %v", err)
	}
	return rel.(TileIntrospector).Tiles(), rel.Stats()
}

func dirTestLines(batch, n int) []string {
	lines := make([]string, n)
	for i := 0; i < n; i++ {
		id := batch*n + i
		lines[i] = fmt.Sprintf(`{"id":%d,"batch":%d,"name":"doc-%d","score":%g}`,
			id, batch, id, float64(id)*0.25)
	}
	return lines
}

func dirTestAccesses() []Access {
	return []Access{
		NewAccessPath(expr.TBigInt, keypath.NewPath("id")),
		NewAccessPath(expr.TBigInt, keypath.NewPath("batch")),
		NewAccessPath(expr.TText, keypath.NewPath("name")),
		NewAccessPath(expr.TFloat, keypath.NewPath("score")),
	}
}

// scanMultiset collects a relation's row scan as a multiset of
// rendered rows.
func scanMultiset(rel Relation, accesses []Access) map[string]int {
	got := map[string]int{}
	var mu sync.Mutex
	scanRows(context.Background(), rel, accesses, 2, func(w int, row []expr.Value) {
		key := ""
		for _, v := range row {
			key += v.String() + "|"
		}
		mu.Lock()
		got[key]++
		mu.Unlock()
	}, nil)
	return got
}

func sameMultiset(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct rows, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: row %q count %d, want %d", label, k, got[k], n)
		}
	}
}

// openDirFS opens a directory table over an FS store rooted at dir —
// what jsontiles.OpenDir builds. The store closes with the test.
func openDirFS(t *testing.T, dir string, cfg LoaderConfig, fanIn int, auto bool) *DirTable {
	t.Helper()
	store, err := blockstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	dt, err := OpenDirStore("t", store, nil, cfg, fanIn, auto)
	if err != nil {
		t.Fatalf("OpenDirStore: %v", err)
	}
	return dt
}

func TestDirTableAppendCompactReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	dt := openDirFS(t, dir, cfg, 4, false)

	const batches, rows = 8, 48
	var all []string
	for b := 0; b < batches; b++ {
		lines := dirTestLines(b, rows)
		all = append(all, lines...)
		tiles, st := dirTestBatch(t, lines)
		if err := dt.AppendTiles(tiles, st, 2); err != nil {
			t.Fatalf("AppendTiles %d: %v", b, err)
		}
	}
	if got := dt.NumSegments(); got != batches {
		t.Fatalf("NumSegments = %d, want %d", got, batches)
	}
	if got := dt.NumRows(); got != batches*rows {
		t.Fatalf("NumRows = %d, want %d", got, batches*rows)
	}
	if got := dt.Stats().RowCount(); got != int64(batches*rows) {
		t.Fatalf("stats rows = %d, want %d", got, batches*rows)
	}

	// Ground truth: the same documents as one in-memory relation.
	raw := make([][]byte, len(all))
	for i, l := range all {
		raw[i] = []byte(l)
	}
	mem, err := BuildTilesFromLines("mem", raw, cfg, 2)
	if err != nil {
		t.Fatalf("BuildTilesFromLines: %v", err)
	}
	accesses := dirTestAccesses()
	want := scanMultiset(mem, accesses)

	sameMultiset(t, "before compaction", scanMultiset(dt, accesses), want)

	rounds, err := dt.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if rounds == 0 {
		t.Fatal("Compact ran no rounds over 8 small segments")
	}
	after := dt.NumSegments()
	if after >= batches {
		t.Fatalf("NumSegments = %d after compaction, want < %d", after, batches)
	}
	sameMultiset(t, "after compaction", scanMultiset(dt, accesses), want)
	if dt.NumRows() != batches*rows {
		t.Fatalf("NumRows after compaction = %d", dt.NumRows())
	}
	if err := dt.Err(); err != nil {
		t.Fatalf("Err after compaction: %v", err)
	}

	// Dead segment files must be gone; live ones must match the
	// manifest exactly.
	man, err := manifest.LoadStore(dt.store)
	if err != nil {
		t.Fatalf("Load manifest: %v", err)
	}
	if len(man.Segments) != after {
		t.Fatalf("manifest lists %d segments, table has %d", len(man.Segments), after)
	}
	entries, _ := os.ReadDir(dir)
	segFiles := 0
	for _, e := range entries {
		if manifest.IsSegmentFileName(e.Name()) {
			segFiles++
		}
	}
	if segFiles != after {
		t.Fatalf("%d segment files on disk, want %d", segFiles, after)
	}

	if err := dt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the compacted generation serves identical results.
	dt2 := openDirFS(t, dir, cfg, 4, false)
	defer dt2.Close()
	if dt2.NumSegments() != after {
		t.Fatalf("reopened NumSegments = %d, want %d", dt2.NumSegments(), after)
	}
	sameMultiset(t, "after reopen", scanMultiset(dt2, accesses), want)
}

func TestDirTableScansPinOldGenerationDuringCompact(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	dt := openDirFS(t, dir, cfg, 2, false)
	defer dt.Close()

	var all []string
	for b := 0; b < 4; b++ {
		lines := dirTestLines(b, 64)
		all = append(all, lines...)
		tiles, st := dirTestBatch(t, lines)
		if err := dt.AppendTiles(tiles, st, 2); err != nil {
			t.Fatalf("AppendTiles: %v", err)
		}
	}
	accesses := dirTestAccesses()
	want := scanMultiset(dt, accesses)

	// Concurrent scans race one compaction; every scan must see a
	// complete, consistent generation (old or new).
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := scanMultiset(dt, accesses)
			if len(got) != len(want) {
				errs <- fmt.Sprintf("scan saw %d distinct rows, want %d", len(got), len(want))
			}
		}()
	}
	if _, err := dt.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err := dt.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	sameMultiset(t, "post-compact", scanMultiset(dt, accesses), want)
}

func TestDirTableCrashBeforeManifestRenameRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	dt := openDirFS(t, dir, cfg, 4, false)
	tiles, st := dirTestBatch(t, dirTestLines(0, 32))
	if err := dt.AppendTiles(tiles, st, 2); err != nil {
		t.Fatalf("AppendTiles: %v", err)
	}
	accesses := dirTestAccesses()
	want := scanMultiset(dt, accesses)

	// Crash between segment write and manifest rename: the append
	// fails, the orphan segment stays on disk (nothing runs after a
	// real crash), and the committed generation is untouched.
	blockstore.Rename = func(oldpath, newpath string) error {
		if strings.HasSuffix(newpath, manifest.FileName) {
			return fmt.Errorf("injected crash before rename")
		}
		return os.Rename(oldpath, newpath)
	}
	tiles2, st2 := dirTestBatch(t, dirTestLines(1, 32))
	err := dt.AppendTiles(tiles2, st2, 2)
	blockstore.Rename = os.Rename
	if err == nil {
		t.Fatal("AppendTiles succeeded despite failing rename")
	}
	dt.Close()

	orphans := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if manifest.IsSegmentFileName(e.Name()) {
			orphans++
		}
	}
	if orphans != 2 {
		t.Fatalf("%d segment files before recovery, want 2 (1 live + 1 orphan)", orphans)
	}

	// A crashed writer's temporary, besides its orphan segment.
	if err := os.WriteFile(filepath.Join(dir, "seg-000007.seg.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	listDir := func() []string {
		var names []string
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.Name() != manifest.FileName {
				names = append(names, e.Name())
			}
		}
		return names
	}

	dt2 := openDirFS(t, dir, cfg, 4, false)
	defer dt2.Close()
	if dt2.NumSegments() != 1 || dt2.NumRows() != 32 {
		t.Fatalf("recovered table: %d segments, %d rows; want 1, 32", dt2.NumSegments(), dt2.NumRows())
	}
	sameMultiset(t, "recovered", scanMultiset(dt2, accesses), want)
	if got := listDir(); len(got) != 3 {
		t.Fatalf("objects after reopen = %v, want the live segment, the orphan and the temporary", got)
	}

	// The first commit collects the debris before it writes.
	recoveries := obs.ManifestRecoveries.Load()
	tiles3, st3 := dirTestBatch(t, dirTestLines(2, 32))
	if err := dt2.AppendTiles(tiles3, st3, 2); err != nil {
		t.Fatalf("AppendTiles after recovery: %v", err)
	}
	if got := obs.ManifestRecoveries.Load() - recoveries; got != 1 {
		t.Errorf("manifest_recoveries rose by %d over the first commit, want 1", got)
	}
	if got, want := listDir(), []string{manifest.SegmentFileName(0), manifest.SegmentFileName(1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("objects after the first commit = %v, want %v", got, want)
	}
	if dt2.NumSegments() != 2 || dt2.NumRows() != 64 {
		t.Fatalf("after the first commit: %d segments, %d rows; want 2, 64", dt2.NumSegments(), dt2.NumRows())
	}
}

func TestDirTableBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	dt := openDirFS(t, dir, cfg, 2, true)
	for b := 0; b < 6; b++ {
		tiles, st := dirTestBatch(t, dirTestLines(b, 32))
		if err := dt.AppendTiles(tiles, st, 2); err != nil {
			t.Fatalf("AppendTiles: %v", err)
		}
	}
	// Close waits out background compaction; afterwards the manifest
	// must be internally consistent and reopenable.
	if err := dt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	dt2 := openDirFS(t, dir, cfg, 2, false)
	defer dt2.Close()
	if dt2.NumRows() != 6*32 {
		t.Fatalf("NumRows = %d, want %d", dt2.NumRows(), 6*32)
	}
}

func TestTierOf(t *testing.T) {
	cases := []struct {
		bytes int64
		tier  int
	}{
		{0, 0}, {1 << 10, 0}, {63 << 10, 0},
		{64 << 10, 1}, {255 << 10, 1},
		{256 << 10, 2}, {1 << 20, 3},
	}
	for _, c := range cases {
		if got := tierOf(c.bytes); got != c.tier {
			t.Errorf("tierOf(%d) = %d, want %d", c.bytes, got, c.tier)
		}
	}
}

func TestDirTableEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	cfg := DefaultLoaderConfig()
	dt := openDirFS(t, dir, cfg, 0, false)
	defer dt.Close()
	if dt.NumRows() != 0 || dt.NumSegments() != 0 {
		t.Fatalf("empty table: %d rows, %d segments", dt.NumRows(), dt.NumSegments())
	}
	if got := scanMultiset(dt, dirTestAccesses()); len(got) != 0 {
		t.Fatalf("empty table scan returned %d rows", len(got))
	}
	if rounds, err := dt.Compact(); err != nil || rounds != 0 {
		t.Fatalf("Compact on empty = %d, %v", rounds, err)
	}
	// The empty first generation is committed: a second open sees it.
	dt2 := openDirFS(t, dir, cfg, 0, false)
	dt2.Close()
}

// Decoded columns are shared through the pool by every scan, worker
// and tenant: concurrent batch scans under two tenants (one with a
// quota too small for the table) return the same rows while an append
// and a compaction replace segments under them, and afterwards the
// pool is inside its bounds with nothing pinned.
func TestDirTableConcurrentScansShareDecodedColumns(t *testing.T) {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	pool := bufpool.New(8 << 10) // smaller than the table: eviction runs beside the scans
	pool.SetQuota("small", 2<<10)
	dt, err := OpenDirStore("t", blockstore.NewMem(), pool, cfg, 2, false)
	if err != nil {
		t.Fatalf("OpenDirStore: %v", err)
	}
	defer dt.Close()
	const batches = 6
	for b := 0; b < batches; b++ {
		tiles, st := dirTestBatch(t, dirTestLines(b, 64))
		if err := dt.AppendTiles(tiles, st, 2); err != nil {
			t.Fatalf("AppendTiles: %v", err)
		}
	}
	accesses := dirTestAccesses()
	// Rows of the batch appended mid-scan are left out, so every
	// generation a scan can pin answers alike.
	scan := func(tenant string, workers int) map[string]int {
		got := map[string]int{}
		var mu sync.Mutex
		ctx := obs.WithTenant(context.Background(), tenant)
		dt.ScanBatches(ctx, accesses, workers, func(_ int, b *vec.Batch) {
			mu.Lock()
			defer mu.Unlock()
			for _, i := range b.Selected() {
				if b.Cols[1].Value(int(i)).I >= batches {
					continue
				}
				key := ""
				for c := range b.Cols {
					key += b.Cols[c].Value(int(i)).String() + "|"
				}
				got[key]++
			}
		}, nil)
		return got
	}
	want := scan("", 1)
	if len(want) != batches*64 {
		t.Fatalf("baseline scan saw %d rows, want %d", len(want), batches*64)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"big", "small"}[g%2]
			for round := 0; round < 6; round++ {
				got := scan(tenant, 1+g%3)
				if len(got) != len(want) {
					t.Errorf("scan %d/%d (%s): %d distinct rows, want %d", g, round, tenant, len(got), len(want))
					return
				}
				for k, n := range want {
					if got[k] != n {
						t.Errorf("scan %d/%d (%s): row %q ×%d, want ×%d", g, round, tenant, k, got[k], n)
						return
					}
				}
			}
		}(g)
	}
	tiles, st := dirTestBatch(t, dirTestLines(batches, 64))
	if err := dt.AppendTiles(tiles, st, 2); err != nil {
		t.Errorf("AppendTiles beside scans: %v", err)
	}
	if _, err := dt.Compact(); err != nil {
		t.Errorf("Compact beside scans: %v", err)
	}
	wg.Wait()
	if err := dt.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	ps := pool.Stats()
	if ps.Resident > pool.Capacity() || ps.PinnedBytes != 0 {
		t.Errorf("pool after the scans: %d resident of %d, %d pinned", ps.Resident, pool.Capacity(), ps.PinnedBytes)
	}
	if ts := pool.TenantStats("small"); ts.Resident > ts.Quota {
		t.Errorf("tenant small holds %d bytes over its quota of %d", ts.Resident, ts.Quota)
	}
	if ps.Evictions == 0 {
		t.Error("the pool never evicted: the test did not exercise decode-after-eviction")
	}
}

// TestSharedPoolEvictionsCountedOnce: two tables over one buffer pool,
// scanned in turn, book the pool's evictions once: the process-wide
// series rises by exactly what the pool evicted.
func TestSharedPoolEvictionsCountedOnce(t *testing.T) {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	pool := bufpool.New(8 << 10) // smaller than either table
	var tables []*DirTable
	for i := range 2 {
		dt, err := OpenDirStore(fmt.Sprintf("t%d", i), blockstore.NewMem(), pool, cfg, 2, false)
		if err != nil {
			t.Fatalf("OpenDirStore: %v", err)
		}
		defer dt.Close()
		for b := range 3 {
			tiles, st := dirTestBatch(t, dirTestLines(b, 64))
			if err := dt.AppendTiles(tiles, st, 2); err != nil {
				t.Fatalf("AppendTiles: %v", err)
			}
		}
		tables = append(tables, dt)
	}
	series, evicted := obs.BufpoolEvictions.Load(), pool.Stats().Evictions
	for range 2 {
		for _, dt := range tables {
			dt.ScanBatches(context.Background(), dirTestAccesses(), 2, func(int, *vec.Batch) {}, nil)
			if err := dt.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := obs.BufpoolEvictions.Load()-series, pool.Stats().Evictions-evicted
	if want == 0 {
		t.Fatal("the pool never evicted: the test exercises nothing")
	}
	if got != want {
		t.Errorf("bufpool_evictions rose by %d, the pool evicted %d", got, want)
	}
}
