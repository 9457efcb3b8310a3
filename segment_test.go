package jsontiles

// End-to-end acceptance tests for segment persistence: an in-memory
// table appended to a store-backed table and reopened answers queries
// byte-identically to the table it was written from, skipped tiles and
// unaccessed columns incur zero block I/O, and repeated queries hit
// the buffer pool.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/keypath"
	"repro/internal/manifest"
	"repro/internal/segment"
)

// persist appends mem, as one segment, to a new table in a fresh
// MemStore and returns the table reopened from that store, as a later
// process would open it, along with the store. The reopened table
// closes with the test.
func persist(t testing.TB, mem *Table, o Options) (*Table, BlockStore) {
	t.Helper()
	store := NewMemStore()
	w, err := OpenStore(mem.Name(), store, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTable(mem); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenStore(mem.Name(), store, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl, store
}

func TestSegmentRoundTripIdenticalResults(t *testing.T) {
	o := opts()
	mem, err := Load("reviews", reviewDocs(500), o)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := persist(t, mem, o)
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
	seg, _ := persist(t, mem, o)

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
	seg, _ := persist(t, tbl, o)
	if seg.NumRows() != 100 {
		t.Fatalf("rows = %d, want 100 (pending inserts must be flushed)", seg.NumRows())
	}
}

// corruptSegment persists mem as a one-segment table, flips one byte
// of the block pick chooses from tile 1's footer record in the segment
// object, and reopens the table.
func corruptSegment(t *testing.T, mem *Table, o Options, pick func(*segment.TileMeta) segment.BlockRef) *Table {
	t.Helper()
	tbl, store := persist(t, mem, o)
	tbl.Close()
	file := manifest.SegmentFileName(0)
	r, err := segment.OpenStore(store, file, bufpool.New(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := pick(r.Tile(1))
	r.Close()
	size, err := store.Size(file)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := store.ReadRange(file, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	raw = append([]byte(nil), raw...)
	raw[ref.Off] ^= 0xFF
	if err := store.Put(file, raw); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenStore(mem.Name(), store, o)
	if err != nil {
		t.Fatalf("open after data-block corruption should succeed: %v", err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

// TestSegmentCorruptBlockFailsTheQuery: a query that reads a block
// failing its checksum returns ErrUnreadable and no result, whether
// the block is a column or the documents; a query over an untouched
// column still answers in full.
func TestSegmentCorruptBlockFailsTheQuery(t *testing.T) {
	o := opts()
	mem, err := Load("reviews", reviewDocs(256), o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Query("data->>'review_id'").Run()
	if err != nil {
		t.Fatal(err)
	}
	stars := keypath.NewPath("stars").Encode()
	for _, c := range []struct {
		name, sel string
		pick      func(*segment.TileMeta) segment.BlockRef
	}{
		{"column", "data->>'stars'::BigInt", func(tm *segment.TileMeta) segment.BlockRef {
			return tm.Columns[tm.ColumnsForPath(stars)[0]].Block
		}},
		{"docs", "data->'stars'", func(tm *segment.TileMeta) segment.BlockRef { return tm.DocRef(tm.DocPart("stars")) }},
	} {
		seg := corruptSegment(t, mem, o, c.pick)
		res, err := seg.Query(c.sel).Run()
		if !errors.Is(err, ErrUnreadable) || res != nil {
			t.Errorf("%s: Run = %v, %v; want no result and ErrUnreadable", c.name, res, err)
		}
		res, err = seg.Query(c.sel).RunContext(context.Background())
		if !errors.Is(err, ErrUnreadable) || res != nil {
			t.Errorf("%s: RunContext = %v, %v; want no result and ErrUnreadable", c.name, res, err)
		}
		got, err := seg.Query("data->>'review_id'").Run()
		if err != nil {
			t.Fatalf("%s: query over an untouched column: %v", c.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: query over an untouched column answered\n%s\nwant\n%s", c.name, got, want)
		}
	}
}

// TestOpenStoreJunkSegment: a manifest naming a segment object that
// holds junk opens, because the open reads only the manifest, and the
// first query that reads the segment fails with ErrUnreadable, naming
// it. A manifest entry whose tile index is truncated, or that has none,
// fails the open itself, naming the segment exactly once.
func TestOpenStoreJunkSegment(t *testing.T) {
	mem, err := Load("reviews", reviewDocs(100), opts())
	if err != nil {
		t.Fatal(err)
	}
	_, store := persist(t, mem, opts())
	file := manifest.SegmentFileName(0)
	if err := store.Put(file, []byte("this is not a segment file at all")); err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenStore("reviews", store, opts())
	if err != nil {
		t.Fatalf("open reads only the manifest, yet failed: %v", err)
	}
	_, err = tbl.Query("data->>'review_id'").Run()
	tbl.Close()
	if !errors.Is(err, ErrUnreadable) || !strings.Contains(err.Error(), file) {
		t.Errorf("query over the junk segment: %v; want ErrUnreadable naming %s", err, file)
	}

	man, err := manifest.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	index := man.Segments[0].Index
	for _, c := range []struct {
		name  string
		index []byte
	}{
		{"truncated tile index", index[:len(index)/2]},
		{"no tile index", nil},
	} {
		man.Segments[0].Index = c.index
		if err := manifest.CommitStore(store, man); err != nil {
			t.Fatal(err)
		}
		tbl, err = OpenStore("reviews", store, opts())
		if err == nil {
			tbl.Close()
			t.Errorf("%s: the open succeeded", c.name)
		} else if n := strings.Count(err.Error(), file); n != 1 {
			t.Errorf("%s: open error %q names %s %d times, want once", c.name, err, file, n)
		}
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

// failFooters fails every read of a segment's footer block — the block
// that ends where the fixed tail begins — and every whole-object read
// of a segment (n < 0), which covers that block too.
type failFooters struct{ BlockStore }

func (s failFooters) ReadRange(name string, off, n int64) ([]byte, error) {
	if size, err := s.Size(name); err == nil && manifest.IsSegmentFileName(name) && (n < 0 || off+n == size-segment.TailSize) {
		return nil, errors.New("injected footer read failure")
	}
	return s.BlockStore.ReadRange(name, off, n)
}

// TestJoinWithoutStatistics: when the tables' footer statistics cannot
// be read, the join planner gets none, the failure is recorded for
// ScanErr, and the join answers as it does over in-memory tables.
func TestJoinWithoutStatistics(t *testing.T) {
	reviews, err := Load("reviews", reviewDocs(300), opts())
	if err != nil {
		t.Fatal(err)
	}
	var bdocs [][]byte
	for i := 0; i < 10; i++ {
		bdocs = append(bdocs, []byte(fmt.Sprintf(`{"id":"b%02d","city":"city%d"}`, i, i%3)))
	}
	business, err := Load("business", bdocs, opts())
	if err != nil {
		t.Fatal(err)
	}
	join := func(r, b *Table) string {
		res, err := r.Query("data->>'business'", "data->>'stars'::BigInt").
			Join(b, []string{"data->>'id'", "data->>'city'"}, 0, 0).
			GroupBy(3).
			Aggregate(CountAll("reviews"), Avg(1, "avg_stars")).
			OrderBy(0, false).
			Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	want := join(reviews, business)

	var opened []*Table
	for _, mem := range []*Table{reviews, business} {
		_, store := persist(t, mem, opts())
		tbl, err := OpenStore(mem.Name(), failFooters{store}, opts())
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		opened = append(opened, tbl)
	}
	if got := join(opened[0], opened[1]); got != want {
		t.Errorf("join without statistics answered\n%s\nwant\n%s", got, want)
	}
	for _, tbl := range opened {
		if err := tbl.ScanErr(); err == nil || !strings.Contains(err.Error(), "injected footer read failure") {
			t.Errorf("%s: ScanErr = %v, want the footer read failure", tbl.Name(), err)
		}
	}
}
