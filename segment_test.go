package jsontiles

// End-to-end acceptance tests for segment persistence: a reopened
// segment answers queries byte-identically to the in-memory table it
// was written from, skipped tiles and unaccessed columns incur zero
// block I/O, and repeated queries hit the buffer pool.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReopen(t *testing.T, tbl *Table, o Options) *Table {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.seg")
	if err := tbl.WriteSegment(path); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(tbl.Name(), path, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

func TestSegmentRoundTripIdenticalResults(t *testing.T) {
	o := opts()
	mem, err := Load("reviews", reviewDocs(500), o)
	if err != nil {
		t.Fatal(err)
	}
	seg := writeReopen(t, mem, o)
	if seg.NumRows() != mem.NumRows() {
		t.Fatalf("rows: segment %d, memory %d", seg.NumRows(), mem.NumRows())
	}

	queries := []func(*Table) *Query{
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
	for qi, mk := range queries {
		want, err := mk(mem).Run()
		if err != nil {
			t.Fatalf("query %d (memory): %v", qi, err)
		}
		got, err := mk(seg).Run()
		if err != nil {
			t.Fatalf("query %d (segment): %v", qi, err)
		}
		if got.String() != want.String() {
			t.Errorf("query %d differs:\nmemory:\n%s\nsegment:\n%s", qi, want, got)
		}
	}
	if err := seg.ScanErr(); err != nil {
		t.Fatalf("ScanErr = %v", err)
	}
	// Statistics survived the round trip.
	if seg.Stats().Rows() != mem.Stats().Rows() {
		t.Errorf("stats rows: segment %d, memory %d", seg.Stats().Rows(), mem.Stats().Rows())
	}
	if seg.Stats().PathCount("stars") != mem.Stats().PathCount("stars") {
		t.Errorf("PathCount(stars): segment %d, memory %d",
			seg.Stats().PathCount("stars"), mem.Stats().PathCount("stars"))
	}
}

// TestSegmentLazyBlockIO pins the acceptance criteria: a query over one
// extracted column reads exactly one block per scanned tile (unaccessed
// columns and the binary-JSON fallback never leave disk), a query whose
// filter rejects every tile reads zero blocks, and re-running a query
// serves its blocks from the buffer pool.
func TestSegmentLazyBlockIO(t *testing.T) {
	o := opts()
	mem, err := Load("reviews", reviewDocs(512), o)
	if err != nil {
		t.Fatal(err)
	}
	seg := writeReopen(t, mem, o)

	scanStats := func(q *Query) *ScanStats {
		t.Helper()
		_, stats, err := q.RunAnalyzed()
		if err != nil {
			t.Fatal(err)
		}
		n := stats.Plan.Find("Scan")
		if n == nil || n.Scan == nil {
			t.Fatalf("no scan stats:\n%s", stats.Plan)
		}
		return n.Scan
	}

	numTiles := int64(512 / o.TileSize)

	// Cold single-column scan: one column block per tile, all misses,
	// no document blocks.
	s := scanStats(seg.Query("data->>'stars'::BigInt").Aggregate(Sum(0, "s")))
	if s.NumTiles != numTiles || s.TilesScanned != numTiles {
		t.Fatalf("tiles: %+v, want %d scanned", s, numTiles)
	}
	if s.PoolMisses != numTiles || s.PoolHits != 0 {
		t.Errorf("cold scan pool %d hit/%d miss, want 0/%d (one column block read per tile)", s.PoolHits, s.PoolMisses, numTiles)
	}
	if s.StoreBytesRead <= 0 {
		t.Errorf("cold scan StoreBytesRead = %d", s.StoreBytesRead)
	}

	// Warm repeat: same blocks, now from the pool — zero disk reads.
	s = scanStats(seg.Query("data->>'stars'::BigInt").Aggregate(Sum(0, "s")))
	if s.PoolHits != numTiles || s.PoolMisses != 0 {
		t.Errorf("warm scan pool %d hit/%d miss, want %d/0", s.PoolHits, s.PoolMisses, numTiles)
	}

	// A null-rejecting filter on an absent path skips every tile from
	// footer metadata alone: zero blocks touched.
	s = scanStats(seg.Query("data->>'no_such_key'").WhereNotNull(0))
	if s.TilesSkipped != numTiles {
		t.Fatalf("skipped %d tiles, want %d", s.TilesSkipped, numTiles)
	}
	if s.PoolHits != 0 || s.PoolMisses != 0 {
		t.Errorf("skipped scan touched blocks: %+v", s)
	}

	// The rendered plan carries the I/O counters.
	_, stats, err := seg.Query("data->>'useful'::BigInt").Aggregate(Max(0, "m")).RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	out := stats.String()
	if !strings.Contains(out, "pool") || !strings.Contains(out, "blocks=") {
		t.Errorf("analyzed plan misses pool/block counters:\n%s", out)
	}
	if err := seg.ScanErr(); err != nil {
		t.Fatalf("ScanErr = %v", err)
	}
}

func TestSegmentWriteFlushesPending(t *testing.T) {
	o := opts()
	tbl := New("inc", o)
	for _, d := range reviewDocs(100) {
		if err := tbl.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	seg := writeReopen(t, tbl, o)
	if seg.NumRows() != 100 {
		t.Fatalf("rows = %d, want 100 (pending inserts must be flushed)", seg.NumRows())
	}
}

// A table opened with OpenSegment is a read-only view of one immutable
// file: Insert fails naming the directory-table way to append, and the
// table keeps answering from its segment, vectorized and with tile
// skipping, exactly as before the attempt.
func TestOpenSegmentIsReadOnly(t *testing.T) {
	o := opts()
	mem, err := Load("reviews", reviewDocs(3000), o)
	if err != nil {
		t.Fatal(err)
	}
	seg := writeReopen(t, mem, o)
	err = seg.Insert(reviewDocs(1)[0])
	if err == nil || !strings.Contains(err.Error(), "OpenDir") || !strings.Contains(err.Error(), "AppendTable") {
		t.Fatalf("Insert on a segment-opened table = %v, want a read-only error naming OpenDir and AppendTable", err)
	}
	if err := seg.Flush(); err != nil {
		t.Fatalf("Flush with nothing pending = %v", err)
	}
	if seg.NumRows() != 3000 {
		t.Fatalf("rows = %d, want 3000", seg.NumRows())
	}
	res, qs, err := seg.Query("data->>'stars'::BigInt").WhereNotNull(0).RunAnalyzed()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Query("data->>'stars'::BigInt").WhereNotNull(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", res.NumRows(), want.NumRows())
	}
	if plan := qs.Plan.String(); !strings.Contains(plan, "[vectorized]") || !strings.Contains(plan, "skipped") {
		t.Fatalf("plan lost the segment scan:\n%s", plan)
	}
}

func TestSegmentCorruptBlockDegradesToScanErr(t *testing.T) {
	o := opts()
	mem, err := Load("reviews", reviewDocs(256), o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.seg")
	if err := mem.WriteSegment(path); err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first data block (right after the
	// 8-byte header magic). Open still succeeds — the footer is intact
	// — but whichever access needs that block gets NULLs plus a
	// recorded scan error instead of a crash.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment("reviews", path, o)
	if err != nil {
		t.Fatalf("open after data-block corruption should succeed: %v", err)
	}
	defer seg.Close()

	// Touch every column and the document fallback so the corrupt
	// block is certainly accessed.
	res, err := seg.Query("data->>'review_id'", "data->>'stars'::BigInt", "data->'stars'").Run()
	if err != nil {
		t.Fatalf("query should degrade, not fail: %v", err)
	}
	if res.NumRows() != 256 {
		t.Fatalf("rows = %d, want 256", res.NumRows())
	}
	if seg.ScanErr() == nil {
		t.Fatal("ScanErr = nil, want the corrupt-block error")
	}
}

func TestOpenSegmentErrors(t *testing.T) {
	if _, err := OpenSegment("x", filepath.Join(t.TempDir(), "missing.seg"), opts()); err == nil {
		t.Error("opening a missing file should fail")
	}
	junk := filepath.Join(t.TempDir(), "junk.seg")
	if err := os.WriteFile(junk, []byte("this is not a segment file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment("x", junk, opts()); err == nil {
		t.Error("opening junk should fail")
	}
}

// Opening a missing segment fails with fs.ErrNotExist and creates
// nothing along the missing path.
func TestOpenSegmentMissingCreatesNothing(t *testing.T) {
	root := t.TempDir()
	_, err := OpenSegment("t", filepath.Join(root, "no", "such", "dir", "t.seg"), opts())
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenSegment of a missing path = %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Join(root, "no")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the failed open left %s behind (stat: %v)", filepath.Join(root, "no"), err)
	}
}

// Close on an in-memory table is a harmless no-op.
func TestCloseInMemoryNoOp(t *testing.T) {
	tbl, err := Load("m", reviewDocs(10), opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ScanErr(); err != nil {
		t.Fatal(err)
	}
}
