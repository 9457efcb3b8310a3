package jsontiles

// End-to-end acceptance tests for multi-segment table directories: a
// table built with 8 incremental flushes answers identical query
// results before compaction, after Compact(), and after a
// crash-recovery reopen, with segments_live visible in EXPLAIN
// ANALYZE.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/manifest"
	"repro/internal/obs"
)

func dirOpts() Options {
	o := opts()
	o.CompactFanIn = -1 // tests drive compaction explicitly
	return o
}

// flushBatches inserts docs in n equal batches, flushing after each,
// so the directory accumulates one segment per batch.
func flushBatches(t *testing.T, tbl *Table, all [][]byte, n int) {
	t.Helper()
	per := len(all) / n
	for b := 0; b < n; b++ {
		batch := all[b*per : (b+1)*per]
		for _, d := range batch {
			if err := tbl.Insert(d); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		if err := tbl.Flush(); err != nil {
			t.Fatalf("Flush %d: %v", b, err)
		}
	}
}

func dirQueries() []func(*Table) *Query {
	return []func(*Table) *Query{
		func(tb *Table) *Query {
			return tb.Query("data->>'review_id'", "data->>'stars'::BigInt",
				"data->>'business'", "data->>'date'").OrderBy(0, false)
		},
		func(tb *Table) *Query {
			return tb.Query("data->>'stars'::BigInt", "data->>'useful'::BigInt").
				GroupBy(0).
				Aggregate(CountAll("n"), Sum(1, "u"), Avg(1, "avg")).
				OrderBy(0, false)
		},
		func(tb *Table) *Query {
			return tb.Query("data->>'review_id'", "data->>'stars'::BigInt").
				WhereCmp(1, Ge, 4).OrderBy(0, false)
		},
	}
}

func runAll(t *testing.T, tbl *Table, label string) []string {
	t.Helper()
	var out []string
	for qi, mk := range dirQueries() {
		res, err := mk(tbl).Run()
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		out = append(out, res.String())
	}
	return out
}

func TestDirConformanceAcrossCompactionAndReopen(t *testing.T) {
	const batches = 8
	dir := filepath.Join(t.TempDir(), "reviews")
	o := dirOpts()
	tbl, err := OpenDir("reviews", dir, o)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	all := reviewDocs(800)
	flushBatches(t, tbl, all, batches)

	if got := tbl.NumSegments(); got != batches {
		t.Fatalf("NumSegments = %d, want %d", got, batches)
	}
	if tbl.NumRows() != len(all) {
		t.Fatalf("NumRows = %d, want %d", tbl.NumRows(), len(all))
	}

	// Ground truth: the same documents in one in-memory table.
	mem, err := Load("reviews", all, opts())
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, mem, "memory")

	before := runAll(t, tbl, "before compaction")
	for i := range want {
		if before[i] != want[i] {
			t.Fatalf("query %d differs before compaction:\nmemory:\n%s\ndir:\n%s", i, want[i], before[i])
		}
	}

	// segments_live is visible in EXPLAIN ANALYZE.
	_, stats, err := tbl.Query("data->>'stars'::BigInt").WhereCmp(0, Ge, 4).RunAnalyzed()
	if err != nil {
		t.Fatalf("RunAnalyzed: %v", err)
	}
	if !strings.Contains(stats.Plan.String(), fmt.Sprintf("segments_live=%d", batches)) {
		t.Fatalf("EXPLAIN ANALYZE misses segments_live=%d:\n%s", batches, stats.Plan)
	}

	rounds, err := tbl.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if rounds == 0 {
		t.Fatal("Compact ran no rounds over 8 small segments")
	}
	if got := tbl.NumSegments(); got >= batches {
		t.Fatalf("NumSegments = %d after compaction, want < %d", got, batches)
	}
	after := runAll(t, tbl, "after compaction")
	for i := range want {
		if after[i] != want[i] {
			t.Fatalf("query %d differs after Compact:\nmemory:\n%s\ndir:\n%s", i, want[i], after[i])
		}
	}
	if err := tbl.ScanErr(); err != nil {
		t.Fatalf("ScanErr: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: recovery finds a clean directory and the compacted
	// generation serves the same results.
	tbl2, err := OpenDir("reviews", dir, o)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer tbl2.Close()
	reopened := runAll(t, tbl2, "after reopen")
	for i := range want {
		if reopened[i] != want[i] {
			t.Fatalf("query %d differs after reopen:\nmemory:\n%s\ndir:\n%s", i, want[i], reopened[i])
		}
	}
	// Statistics survive the manifest round trip.
	if tbl2.Stats().Rows() != mem.Stats().Rows() {
		t.Errorf("stats rows: dir %d, memory %d", tbl2.Stats().Rows(), mem.Stats().Rows())
	}
}

// TestDirCrashRecoveryEndToEnd simulates a kill between segment write
// and manifest rename: the injected rename hook fails, leaving the
// new segment file on disk with no manifest referencing it. Reopening
// must serve the pre-crash generation and garbage-collect the orphan.
func TestDirCrashRecoveryEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reviews")
	o := dirOpts()
	tbl, err := OpenDir("reviews", dir, o)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	all := reviewDocs(400)
	flushBatches(t, tbl, all[:200], 2)
	want := runAll(t, tbl, "pre-crash")

	// The crash: everything up to the manifest rename runs (the
	// segment file is written and synced), then the process "dies".
	// Segment puts rename too, so the hook fails only MANIFEST.
	blockstore.Rename = func(oldpath, newpath string) error {
		if strings.HasSuffix(newpath, manifest.FileName) {
			return fmt.Errorf("injected crash before manifest rename")
		}
		return os.Rename(oldpath, newpath)
	}
	for _, d := range all[200:] {
		if err := tbl.Insert(d); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	err = tbl.Flush()
	blockstore.Rename = os.Rename
	if err == nil {
		t.Fatal("Flush succeeded despite failing manifest rename")
	}
	tbl.Close()

	// The orphan is on disk before recovery.
	segFiles := func() []string {
		var names []string
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if manifest.IsSegmentFileName(e.Name()) {
				names = append(names, e.Name())
			}
		}
		return names
	}
	if got := segFiles(); len(got) != 3 {
		t.Fatalf("segment files before recovery = %v, want 2 live + 1 orphan", got)
	}

	tbl2, err := OpenDir("reviews", dir, o)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer tbl2.Close()
	if tbl2.NumSegments() != 2 || tbl2.NumRows() != 200 {
		t.Fatalf("recovered table: %d segments, %d rows; want 2, 200",
			tbl2.NumSegments(), tbl2.NumRows())
	}
	got := runAll(t, tbl2, "recovered")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d differs after recovery:\npre-crash:\n%s\nrecovered:\n%s", i, want[i], got[i])
		}
	}
	// The open reads only the manifest: it deletes nothing.
	if files := segFiles(); len(files) != 3 {
		t.Fatalf("segment files after reopen = %v, want 2 live + 1 orphan", files)
	}

	// The lost batch can simply be flushed again. The first flush
	// collects the orphan before it writes: its segment takes the
	// orphan's id, allocated but never committed.
	for _, d := range all[200:] {
		if err := tbl2.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	recoveries := obs.ManifestRecoveries.Load()
	if err := tbl2.Flush(); err != nil {
		t.Fatalf("re-flush after recovery: %v", err)
	}
	if tbl2.NumRows() != 400 {
		t.Fatalf("NumRows after re-flush = %d, want 400", tbl2.NumRows())
	}
	if got := obs.ManifestRecoveries.Load() - recoveries; got != 1 {
		t.Errorf("manifest_recoveries rose by %d over the first commit, want 1", got)
	}
	if files := segFiles(); len(files) != 3 {
		t.Fatalf("segment files after the first commit = %v, want the 3 live ones", files)
	}
}

func TestDirBackgroundCompactionKeepsResults(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reviews")
	o := opts()
	o.CompactFanIn = 2 // aggressive fan-in so background compaction triggers
	tbl, err := OpenDir("reviews", dir, o)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	all := reviewDocs(600)
	flushBatches(t, tbl, all, 6)

	mem, err := Load("reviews", all, opts())
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, mem, "memory")
	got := runAll(t, tbl, "dir")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d differs under background compaction:\nmemory:\n%s\ndir:\n%s",
				i, want[i], got[i])
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestCompactOnInMemoryTableIsNoop(t *testing.T) {
	tbl, err := Load("reviews", reviewDocs(100), opts())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tbl.Compact(); n != 0 || err != nil {
		t.Fatalf("Compact on in-memory table = %d, %v", n, err)
	}
	if tbl.NumSegments() != 0 {
		t.Fatalf("NumSegments on in-memory table = %d", tbl.NumSegments())
	}
}

// trimSpace must strip every ASCII whitespace byte; historically \n,
// \v, and \f were missed, so NDJSON containing blank-ish separator
// lines (e.g. around array framing) failed to load.
func TestLoadReaderSkipsAllWhitespaceLines(t *testing.T) {
	input := "{\"a\":1}\n" +
		" \t\r\n" + // space/tab/CR line
		"\v\n" + // vertical tab line
		"\f\n" + // form feed line
		"\v\f \t{\"a\":2}\f\v \n" + // payload wrapped in exotic whitespace
		"\n" +
		"{\"a\":3}"
	tbl, err := LoadReader("ws", strings.NewReader(input), opts())
	if err != nil {
		t.Fatalf("LoadReader: %v", err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tbl.NumRows())
	}
	res, err := tbl.Query("data->>'a'::BigInt").OrderBy(0, false).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 || res.Value(1, 0).Int64() != 2 {
		t.Fatalf("unexpected result:\n%s", res)
	}
}

func TestTrimSpace(t *testing.T) {
	cases := map[string]string{
		"":                "",
		"   ":             "",
		"\n\v\f\r\t ":     "",
		" {\"a\":1} ":     `{"a":1}`,
		"\n{\"a\":1}\v":   `{"a":1}`,
		"\f\r{\"a\":1}\t": `{"a":1}`,
		"{\"a\":\" x \"}": `{"a":" x "}`,
		"\va b\f":         "a b",
	}
	for in, want := range cases {
		if got := string(trimSpace([]byte(in))); got != want {
			t.Errorf("trimSpace(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestAnalyzedStoreCountersMatchStore: the store figures of EXPLAIN
// ANALYZE are the store's own. The fetch window reads from goroutines
// of its own; their counters must reach the query's statistics once —
// not zero times, not once per worker.
func TestAnalyzedStoreCountersMatchStore(t *testing.T) {
	mem := NewMemStore()
	tbl, err := OpenStore("reviews", mem, opts())
	if err != nil {
		t.Fatal(err)
	}
	flushBatches(t, tbl, reviewDocs(1200), 3)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{})
	tbl, err = OpenStore("reviews", fake, opts()) // fresh pool: every block is a store read
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	reads0, bytes0 := fake.RangeReadCount(), fake.BytesRead()
	_, stats, err := tbl.Query("data->>'stars'::BigInt", "data->>'business'").WhereCmp(0, Ge, 2).RunAnalyzed()
	if err != nil {
		t.Fatalf("RunAnalyzed: %v", err)
	}
	var scan *ScanStats
	var find func(n *PlanNode)
	find = func(n *PlanNode) {
		if n.Scan != nil {
			scan = n.Scan
		}
		for _, c := range n.Children {
			find(c)
		}
	}
	find(stats.Plan)
	if scan == nil {
		t.Fatalf("no scan node in plan:\n%s", stats.Plan)
	}
	reads, bytes := fake.RangeReadCount()-reads0, fake.BytesRead()-bytes0
	if reads == 0 {
		t.Fatal("cold query issued no store reads")
	}
	if scan.StoreRangeReads != reads || scan.StoreBytesRead != bytes {
		t.Errorf("EXPLAIN ANALYZE: store reads=%d bytes=%d, the store saw %d reads, %d bytes",
			scan.StoreRangeReads, scan.StoreBytesRead, reads, bytes)
	}
	if scan.PoolHits != 0 || scan.StorePrefetchHits != scan.PoolMisses {
		t.Errorf("EXPLAIN ANALYZE: %d blocks read as misses, %d hits, %d prefetch hits; want every block one miss and one prefetch hit",
			scan.PoolMisses, scan.PoolHits, scan.StorePrefetchHits)
	}
}
