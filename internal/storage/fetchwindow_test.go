package storage

// The scan-wide fetch window: request shapes through the counting fake
// (what is read, how often, in how many round trips), behaviour under
// pool pressure, and accounting. Cancellation is in ctxcancel_test.go.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/expr"
	"repro/internal/jsonb"
	"repro/internal/jsontext"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/vec"
)

// fetchTestLines makes n documents whose binary JSON is dominated by a
// pad string of about pad bytes that LZ4 cannot fold away entirely.
func fetchTestLines(n, pad int) []string {
	lines := make([]string, n)
	for i := range lines {
		p := ""
		for len(p) < pad {
			p += fmt.Sprintf("%x-", (i+1)*2654435761+len(p)*40503)
		}
		lines[i] = fmt.Sprintf(`{"id":%d,"k":%d,"pad":%q}`, i, i%7, p)
	}
	return lines
}

// fetchTestStore writes one segment of nTiles tiles of tileRows
// documents each to a fresh in-memory store.
func fetchTestStore(t *testing.T, nTiles, tileRows, pad int) (blockstore.Store, LoaderConfig) {
	t.Helper()
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = tileRows
	cfg.Reorder = false
	lines := fetchTestLines(nTiles*tileRows, pad)
	raw := make([][]byte, len(lines))
	for i, l := range lines {
		raw[i] = []byte(l)
	}
	rel, err := BuildTilesFromLines("t", raw, cfg, 2)
	if err != nil {
		t.Fatalf("BuildTilesFromLines: %v", err)
	}
	mem := blockstore.NewMem()
	dt, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatalf("OpenDirStore: %v", err)
	}
	if err := dt.AppendTiles(rel.(TileIntrospector).Tiles(), rel.Stats(), 2); err != nil {
		t.Fatalf("AppendTiles: %v", err)
	}
	if got := dt.NumTiles(); got != nTiles {
		t.Fatalf("built %d tiles, want %d", got, nTiles)
	}
	dt.Close()
	return mem, cfg
}

var (
	idAccess  = []Access{NewAccessPath(expr.TBigInt, keypath.NewPath("id"))}
	padAccess = []Access{NewAccessPath(expr.TJSON, keypath.NewPath("pad")), NewAccessPath(expr.TBigInt, keypath.NewPath("id"))}
)

func TestFetchOrder(t *testing.T) {
	for _, tc := range []struct {
		morsels []morsel
		workers int
		want    []int
	}{
		{[]morsel{{0, 1}, {1, 2}, {2, 3}}, 2, []int{0, 1, 2}},
		{[]morsel{{0, 3}, {3, 5}, {5, 6}}, 2, []int{0, 3, 1, 4, 2, 5}},
		{[]morsel{{0, 3}, {3, 5}, {5, 6}}, 1, []int{0, 1, 2, 3, 4, 5}},
	} {
		if got := fetchOrder(tc.morsels, tc.workers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("fetchOrder(%v, %d) = %v, want %v", tc.morsels, tc.workers, got, tc.want)
		}
	}
}

// TestFetchWindowOneRoundTrip: a column-only scan plans a few KiB per
// tile, so the whole scan fits the window and costs one round trip
// rather than one per tile and worker.
func TestFetchWindowOneRoundTrip(t *testing.T) {
	const latency = 20 * time.Millisecond
	mem, cfg := fetchTestStore(t, 8, 64, 40)
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
	dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	before := fake.RangeReadCount()
	var rows atomic.Int64
	start := time.Now()
	dt.ScanBatches(context.Background(), idAccess, 2, func(_ int, b *vec.Batch) { rows.Add(int64(b.Len)) }, nil)
	d := time.Since(start)
	if err := dt.Err(); err != nil || rows.Load() != 8*64 {
		t.Fatalf("%d rows, err %v", rows.Load(), err)
	}
	if reads := fake.RangeReadCount() - before; reads != 8 {
		t.Errorf("range reads = %d, want 8 (one per tile)", reads)
	}
	if d >= 3*latency {
		t.Errorf("scan took %v, want < %v", d, 3*latency)
	}
}

// TestFetchWindowPoolPressure: on pools far smaller than the scan —
// 1 MiB, and one smaller than a single tile's need — the window makes
// progress, answers like a roomy pool, leaves nothing pinned, and on
// the smallest pool leaves blocks to be fetched by their claim rather
// than ahead.
func TestFetchWindowPoolPressure(t *testing.T) {
	mem, cfg := fetchTestStore(t, 6, 1024, 300) // ~350 KiB of documents per tile
	dt, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	want := batchMultiset(dt, padAccess, 1)
	dt.Close()
	for _, poolBytes := range []int64{1 << 20, 128 << 10} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("pool=%d workers=%d", poolBytes, workers)
			fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 200 * time.Microsecond})
			dt, err := OpenDirStore("t", fake, bufpool.New(poolBytes), cfg, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			var st obs.ScanStats
			got := batchMultisetStats(dt, padAccess, workers, &st)
			if err := dt.Err(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameMultiset(t, label, got, want)
			if pinned := dt.Pool().Stats().PinnedBytes; pinned != 0 {
				t.Errorf("%s: %d bytes still pinned", label, pinned)
			}
			if c := st.Counts(); poolBytes == 128<<10 && c.StorePrefetchHits >= c.PoolMisses {
				t.Errorf("%s: %d of %d blocks fetched ahead, want some fetched by their claim", label, c.StorePrefetchHits, c.PoolMisses)
			}
			dt.Close()
		}
	}
}

// TestFetchWindowBudgetsStoredBytes: fetched blocks stay compressed
// until their first decode, so the window budgets their stored bytes.
// On a pool smaller than the decompressed document part the scan reads
// (its "pad" values) but larger than its stored bytes, every tile is fetched ahead in one wave and
// no block is read twice.
func TestFetchWindowBudgetsStoredBytes(t *testing.T) {
	const latency = 20 * time.Millisecond
	mem, cfg := fetchTestStore(t, 6, 64, 300)
	roomy, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	var stored, raw int64
	for _, ls := range roomy.snapshot() {
		for ti := 0; ti < ls.r.NumTiles(); ti++ {
			tm := ls.r.Tile(ti)
			d := tm.DocRef(tm.DocPart("pad"))
			stored, raw = stored+int64(d.StoredLen), raw+int64(d.RawLen)
		}
	}
	var roomySt obs.ScanStats
	want := batchMultisetStats(roomy, padAccess, 2, &roomySt)
	roomy.Close()
	poolBytes := (stored + raw) / 2
	if stored >= poolBytes || raw <= poolBytes {
		t.Fatalf("documents store %d bytes, decompress to %d: want a pool between them", stored, raw)
	}

	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
	dt, err := OpenDirStore("t", fake, bufpool.New(poolBytes), cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	reads0 := fake.RangeReadCount()
	var st obs.ScanStats
	start := time.Now()
	got := batchMultisetStats(dt, padAccess, 2, &st)
	d := time.Since(start)
	if err := dt.Err(); err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "stored-byte budget", got, want)
	c := st.Counts()
	if c.StorePrefetchHits != c.PoolMisses {
		t.Errorf("%d of %d blocks fetched ahead, want all", c.StorePrefetchHits, c.PoolMisses)
	}
	planned := roomySt.Counts().StoreRangeReads
	if reads := fake.RangeReadCount() - reads0; reads != planned || c.StoreRangeReads != planned {
		t.Errorf("store served %d range reads, the scan counted %d, want the %d planned runs", reads, c.StoreRangeReads, planned)
	}
	if d >= 3*latency {
		t.Errorf("scan took %v, want < %v (one fetch wave)", d, 3*latency)
	}
}

// TestFetchWindowAccounting: the per-scan statistics agree with what
// the store saw — the fetch goroutines' counters reach them exactly
// once — and a block fetched ahead is one pool miss and one prefetch
// hit (never also a pool hit).
func TestFetchWindowAccounting(t *testing.T) {
	mem, cfg := fetchTestStore(t, 6, 256, 60)
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 200 * time.Microsecond})
	dt, err := OpenDirStore("t", fake, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	reads0, bytes0 := fake.RangeReadCount(), fake.BytesRead()
	var st obs.ScanStats
	dt.ScanBatches(context.Background(), padAccess, 3, func(int, *vec.Batch) {}, &st)
	c := st.Counts()
	if got, want := c.StoreRangeReads, fake.RangeReadCount()-reads0; got != want {
		t.Errorf("stats count %d range reads, the store %d", got, want)
	}
	if got, want := c.StoreBytesRead, fake.BytesRead()-bytes0; got != want {
		t.Errorf("stats count %d bytes read, the store %d", got, want)
	}
	if c.PoolHits != 0 {
		t.Errorf("cold scan of %d blocks counted %d hits", c.PoolMisses, c.PoolHits)
	}
	// Everything fits the default pool, so the window fetches every
	// tile ahead of its claim.
	if got, want := c.StorePrefetchHits, c.PoolMisses; got != want {
		t.Errorf("%d prefetch hits for %d blocks fetched", got, want)
	}
}

// TestColdScanReadsOnlyPlannedBlocks: a text read of a path mined as a
// timestamp takes the document (§4.9), so a cold scan of it fetches and
// decodes each tile's documents and no timestamp column, and every
// block it reads was fetched by the window — none is a demand miss the
// window did not plan.
func TestColdScanReadsOnlyPlannedBlocks(t *testing.T) {
	const tiles, rows = 4, 64
	raw := make([][]byte, tiles*rows)
	for i := range raw {
		raw[i] = []byte(fmt.Sprintf(`{"id":%d,"date":"2020-01-%02d 10:00:00"}`, i, 1+i%28))
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = rows
	rel, err := BuildTilesFromLines("t", raw, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range rel.(TileIntrospector).Tiles() {
		if cols := tl.ColumnsForPath("date"); len(cols) != 1 || tl.Column(cols[0]).StorageType != keypath.TypeTimestamp {
			t.Fatal("want date mined as a timestamp in every tile")
		}
	}
	mem := blockstore.NewMem()
	dt, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendTiles(rel.(TileIntrospector).Tiles(), rel.Stats(), 2); err != nil {
		t.Fatal(err)
	}
	dt.Close()

	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: 200 * time.Microsecond})
	dt, err = OpenDirStore("t", fake, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	var st obs.ScanStats
	got := collectScanStats(dt, []Access{NewAccess(expr.TText, "date")}, 1, &st)
	if err := dt.Err(); err != nil || len(got) != tiles*rows || got[0] != "2020-01-01 10:00:00" {
		t.Fatalf("%d rows, first %q, err %v", len(got), got[0], err)
	}
	c := st.Counts()
	read, decoded, ahead := c.PoolMisses, c.BlocksDecoded, c.StorePrefetchHits
	if read != tiles || decoded != tiles || ahead != tiles {
		t.Errorf("read %d blocks, decoded %d, %d fetched ahead; want each tile's documents alone (%d), all fetched ahead",
			read, decoded, ahead, tiles)
	}
}

// TestRemoteScanCoalescesReads: a geo-filtered scan of an evolving-
// schema table on the object-store fake — four segments of 1000
// documents, geo tags only in the odd ones, so tile skipping drops
// half the table — needs at least three blocks per store request. The
// blocks read are what one request per block would cost, so this is
// the request reduction coalescing buys; the scan's own count must be
// exactly what the store served.
func TestRemoteScanCoalescesReads(t *testing.T) {
	const segs, docs = 4, 1000
	fake := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{})
	cfg := DefaultLoaderConfig()
	dt, err := OpenDirStore("t", fake, nil, cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < segs; seg++ {
		lines := make([][]byte, docs)
		for i := range lines {
			id := seg*docs + i
			geo := ""
			if seg%2 == 1 {
				geo = fmt.Sprintf(`,"geo":{"lat":%g,"lon":%g}`, float64(id%180), float64(id%360))
			}
			lines[i] = []byte(fmt.Sprintf(`{"id":%d,"text":"tweet-%d","user":{"id":%d},"replies":%d,"retweets":%d,"favorites":%d%s}`,
				id, id, id%97, id%13, id%7, id%29, geo))
		}
		l, _ := NewLoader(KindTiles, cfg)
		rel, err := l.Load("t", lines, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := dt.AppendTiles(rel.(TileIntrospector).Tiles(), rel.Stats(), 2); err != nil {
			t.Fatal(err)
		}
	}
	dt.Close()

	geo := NewAccessPath(expr.TFloat, keypath.NewPath("geo", "lat"))
	geo.NullRejecting = true
	accesses := []Access{
		NewAccessPath(expr.TBigInt, keypath.NewPath("id")),
		NewAccessPath(expr.TBigInt, keypath.NewPath("user", "id")),
		NewAccessPath(expr.TBigInt, keypath.NewPath("replies")),
		NewAccessPath(expr.TBigInt, keypath.NewPath("retweets")),
		NewAccessPath(expr.TBigInt, keypath.NewPath("favorites")),
		NewAccessPath(expr.TText, keypath.NewPath("text")),
		geo,
	}
	for _, workers := range []int{1, 4} {
		dt, err := OpenDirStore("t", fake, nil, cfg, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		before := fake.Requests()
		var st obs.ScanStats
		dt.ScanWithStats(context.Background(), accesses, workers, func(int, []expr.Value) {}, &st)
		requests := fake.Requests() - before
		if err := dt.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		dt.Close()
		c := st.Counts()
		if got, want := c.RowsScanned, int64(segs/2*docs); got != want {
			t.Errorf("workers=%d: %d rows scanned, want %d (the geo-tagged segments)", workers, got, want)
		}
		reads, blocks := c.StoreRangeReads, c.PoolMisses
		if reads != requests {
			t.Errorf("workers=%d: stats count %d range reads, the store served %d requests", workers, reads, requests)
		}
		if reads == 0 || blocks < 3*reads {
			t.Errorf("workers=%d: %d blocks in %d range reads, want at least 3 blocks per read", workers, blocks, reads)
		}
	}
}

// TestDocAccessReadsItsKeyPart: a document-served access whose path
// starts with a key reads only that key's part of each tile's
// documents. data->'geo'->>'lat'::Float over a directory table behind
// the counting fake reads exactly the stored bytes of the geo parts the
// window planned, less than a tenth of what the tiles' documents store,
// and answers as the in-memory relation does.
func TestDocAccessReadsItsKeyPart(t *testing.T) {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 64
	cfg.Reorder = false
	raw := make([][]byte, 256)
	for i := range raw {
		geo := ""
		if i%5 == 0 { // in a fifth of the documents: never extracted
			geo = fmt.Sprintf(`,"geo":{"lat":%d.25,"lon":-%d.5}`, i%90, i%180)
		}
		raw[i] = fmt.Appendf(nil, `{"id":%d,"text":"tweet %d %x","user":{"name":"u%d","bio":"%x"}%s}`,
			i, i, i*2654435761, i%17, i*40503, geo)
	}
	rel, err := BuildTilesFromLines("t", raw, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem := blockstore.NewMem()
	dt, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendTiles(rel.(TileIntrospector).Tiles(), rel.Stats(), 2); err != nil {
		t.Fatal(err)
	}
	dt.Close()

	acc := []Access{NewAccess(expr.TFloat, "geo", "lat")}
	want := batchMultiset(rel, acc, 1)
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{})
	dt, err = OpenDirStore("t", fake, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	var planned, docs int64
	lat := keypath.NewPath("geo", "lat").Encode()
	for _, ls := range dt.snapshot() {
		for ti := 0; ti < ls.r.NumTiles(); ti++ {
			tm := ls.r.Tile(ti)
			if len(tm.ColumnsForPath(lat)) > 0 {
				t.Fatalf("tile %d extracts geo.lat: the access would not read documents", ti)
			}
			p := tm.DocPart("geo")
			if p == len(tm.Docs) {
				t.Fatalf("tile %d keeps geo in its residual", ti)
			}
			planned += int64(tm.DocRef(p).StoredLen)
			for q := 0; q <= len(tm.Docs); q++ {
				docs += int64(tm.DocRef(q).StoredLen)
			}
		}
	}
	before := fake.BytesRead()
	var st obs.ScanStats
	got := batchMultisetStats(dt, acc, 2, &st)
	if read := fake.BytesRead() - before; read != planned || st.Counts().StoreBytesRead != planned {
		t.Errorf("scan read %d bytes (stats %d), want the %d stored bytes of the geo parts", read, st.Counts().StoreBytesRead, planned)
	}
	if planned*10 > docs {
		t.Errorf("geo parts store %d of the documents' %d bytes, want under a tenth", planned, docs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("directory table answers %v, in-memory relation %v", got, want)
	}
}

// TestRootAccessReadsWholeDocuments: the root access (data) reads every
// part of each tile's documents, and a directory table answers it with
// the documents the in-memory relation holds, whole.
func TestRootAccessReadsWholeDocuments(t *testing.T) {
	mem, cfg := fetchTestStore(t, 3, 32, 40)
	rel, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	var parts, stored int64
	for _, ls := range rel.snapshot() {
		for ti := 0; ti < ls.r.NumTiles(); ti++ {
			tm := ls.r.Tile(ti)
			for p := 0; p <= len(tm.Docs); p++ {
				parts++
				stored += int64(tm.DocRef(p).StoredLen)
			}
		}
	}
	root := []Access{NewAccessPath(expr.TJSON, keypath.Path{}), {Path: keypath.Path{}, Type: expr.TJSON, NullRejecting: true}}
	root[1].PathEnc = root[1].Path.Encode()
	var st obs.ScanStats
	got := batchMultisetStats(rel, root, 2, &st)
	if c := st.Counts(); c.StoreBytesRead != stored || c.TilesSkipped != 0 {
		t.Errorf("root scan read %d bytes and skipped %d tiles, want every part's %d bytes (%d parts) and no skip", c.StoreBytesRead, c.TilesSkipped, stored, parts)
	}
	lines := fetchTestLines(96, 40)
	want := map[string]int{}
	for _, l := range lines {
		doc, err := jsontext.Parse([]byte(l))
		if err != nil {
			t.Fatal(err)
		}
		v := expr.JSONValue(jsonb.NewDoc(jsonb.Encode(doc))).String()
		want[v+"\x1f"+v+"\x1f"]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("root scan answered %d distinct rows, want the %d documents", len(got), len(want))
	}
}

// TestRawJoinsEachRowOnce: a tile view reassembles a row's document on
// its first Raw and serves every later Raw of the row from what it
// built, so a scan that reads the whole document for several accesses
// pays one reassembly per row.
func TestRawJoinsEachRowOnce(t *testing.T) {
	mem, cfg := fetchTestStore(t, 1, 32, 40)
	rel, err := OpenDirStore("t", mem, nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	r := rel.snapshot()[0].r
	v := &segTileView{r: r, ti: 0, meta: r.Tile(0), cnt: &scanCounters{}}
	docs, _, err := r.Docs(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range docs {
		first := v.Raw(i).Bytes()
		if !bytes.Equal(first, want) {
			t.Fatalf("row %d: Raw gives %x, Docs %x", i, first, want)
		}
		var again []byte
		if n := testing.AllocsPerRun(3, func() { again = v.Raw(i).Bytes() }); n != 0 || &again[0] != &first[0] {
			t.Fatalf("row %d: a second Raw allocated %v times or built a new document", i, n)
		}
	}
}
