package segment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/stats"
	"repro/internal/tile"
)

// writeStoreSegment writes the standard two-tile test segment as an
// object on the given store.
func writeStoreSegment(t testing.TB, store blockstore.Store, name string) ([]*tile.Tile, *stats.TableStats) {
	t.Helper()
	t1src := make([]string, 0, 64)
	t2src := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		t1src = append(t1src, fmt.Sprintf(
			`{"id":%d,"price":%g,"name":"item-%d","active":%t}`, i, float64(i)*1.5+0.25, i, i%2 == 0))
		t2src = append(t2src, fmt.Sprintf(
			`{"user":{"id":%d},"score":%d,"extra_%d":1}`, i, i*10, i))
	}
	tiles := []*tile.Tile{buildTile(t, t1src...), buildTile(t, t2src...)}
	st := stats.New(0, 0)
	for _, tl := range tiles {
		st.AddTile(tl)
	}
	if _, err := WriteStore(store, name, tiles, st); err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	return tiles, st
}

// writeWideStoreSegment writes a segment larger than the open's tail
// window, so its header magic lies outside the window.
func writeWideStoreSegment(t testing.TB, store blockstore.Store, name string) int64 {
	t.Helper()
	var tiles []*tile.Tile
	for ti := 0; ti < 4; ti++ {
		src := make([]string, 256)
		for i := range src {
			src[i] = fmt.Sprintf(`{"id":%d,"pad":"%x-%x-%x-%x"}`, i, (ti*256+i+1)*2654435761, (i+7)*40503, (i+3)*69069, (ti+i)*7919)
		}
		tiles = append(tiles, buildTile(t, src...))
	}
	st := stats.New(0, 0)
	for _, tl := range tiles {
		st.AddTile(tl)
	}
	size, err := WriteStore(store, name, tiles, st)
	if err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	if size <= openTailWindow {
		t.Fatalf("wide segment is %d bytes, want more than the %d-byte tail window", size, openTailWindow)
	}
	return size
}

// TestOpenStoreFooterFirst verifies the speculative-tail open protocol:
// a small segment opens in a handful of requests (size probe + tail
// window covering header, footer, and tail), never one per block.
func TestOpenStoreFooterFirst(t *testing.T) {
	fake := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{})
	tiles, _ := writeStoreSegment(t, fake, "seg")
	before := fake.Requests()
	r, err := OpenStore(fake, "seg", bufpool.New(0))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer r.Close()
	if got := fake.Requests() - before; got != 2 {
		t.Errorf("open took %d store requests, want 2 (size probe, tail window)", got)
	}
	if r.NumTiles() != len(tiles) || r.NumRows() != 128 {
		t.Fatalf("opened %d tiles / %d rows, want %d / 128", r.NumTiles(), r.NumRows(), len(tiles))
	}
	// Data blocks still load on demand and decode correctly.
	docs, c, err := r.Docs(0)
	if err != nil {
		t.Fatalf("Docs: %v", err)
	}
	if len(docs) != 64 || c.PoolMisses == 0 {
		t.Fatalf("Docs = %d rows, %d misses; want 64 cold rows", len(docs), c.PoolMisses)
	}
}

// TestOpenStoreRequestShape counts the footer-first open's requests
// and round trips: a Size probe, then the tail window and, when the
// window does not reach the object's start, the header magic beside it.
func TestOpenStoreRequestShape(t *testing.T) {
	const latency = 20 * time.Millisecond
	mem := blockstore.NewMem()
	writeStoreSegment(t, mem, "small")
	writeWideStoreSegment(t, mem, "wide")
	for _, tc := range []struct {
		name  string
		reads int64
	}{
		{"wide", 2},
		{"small", 1},
	} {
		fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
		start := time.Now()
		r, err := OpenStore(fake, tc.name, bufpool.New(0))
		d := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r.Close()
		reads, sizes := fake.RangeReadCount(), fake.Requests()-fake.RangeReadCount()
		if reads != tc.reads || sizes != 1 {
			t.Errorf("%s: %d reads, %d size probes; want %d, 1", tc.name, reads, sizes, tc.reads)
		}
		if limit := 3 * latency; d >= limit {
			t.Errorf("%s: open took %v, want 2 round trips (< %v)", tc.name, d, limit)
		}
	}
}

// TestOpenStoreErrorContext is the regression test for error context:
// every failure surfaced while opening or demand-reading a segment
// object names the object and the exact byte range, so remote-store
// incidents are debuggable from the error string alone.
func TestOpenStoreErrorContext(t *testing.T) {
	fake := blockstore.NewFakeS3(nil, blockstore.FakeS3Config{})
	writeStoreSegment(t, fake, "ctx.seg")
	size, err := fake.Size("ctx.seg")
	if err != nil {
		t.Fatal(err)
	}

	// Open against a store whose reads all fail (more failures than the
	// retry budget): the error names the object and the tail range.
	fake.FailNextReads(1000)
	_, err = OpenStore(fake, "ctx.seg", nil)
	fake.FailNextReads(-1000)
	if err == nil {
		t.Fatal("OpenStore succeeded against an always-failing store")
	}
	if !blockstore.IsTransient(err) {
		t.Errorf("open error %v, want transient", err)
	}
	msg := err.Error()
	wantRange := fmt.Sprintf("[%d,+", max64(0, size-int64(openTailWindow)))
	if !strings.Contains(msg, "ctx.seg") || !strings.Contains(msg, wantRange) {
		t.Errorf("open error %q lacks object name or byte range %q", msg, wantRange)
	}

	// Demand reads after a successful open: same contract.
	r, err := OpenStore(fake, "ctx.seg", bufpool.New(0))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer r.Close()
	ref := r.Tile(0).Rest
	fake.FailNextReads(1000)
	_, _, err = r.readStoredRetry(ref)
	fake.FailNextReads(-1000)
	if err == nil {
		t.Fatal("readStoredRetry succeeded against an always-failing store")
	}
	msg = err.Error()
	wantRange = fmt.Sprintf("[%d,+%d)", ref.Off, ref.StoredLen)
	if !strings.Contains(msg, "ctx.seg") || !strings.Contains(msg, wantRange) {
		t.Errorf("demand-read error %q lacks object name or byte range %q", msg, wantRange)
	}

	// Transient failures below the retry budget are invisible to the
	// caller — the block arrives, with the retries reported.
	fake.FailNextReads(2)
	b, retries, err := r.readStoredRetry(ref)
	if err != nil || len(b) == 0 {
		t.Fatalf("readStoredRetry after 2 transient failures: %v", err)
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestEncodeIndependentOfWorkers: tiles encode as morsels into buffers
// of their own, yet the stream — dictionary blocks, raw-stored
// incompressible blocks and the footer included — is the same whether
// one worker or several encode it, and it opens.
func TestEncodeIndependentOfWorkers(t *testing.T) {
	var tiles []*tile.Tile
	for ti := 0; ti < 5; ti++ {
		src := make([]string, 200)
		for i := range src {
			src[i] = fmt.Sprintf(`{"id":%d,"status":"s%d","pad":"%x","n":%d.5}`,
				i, (i+ti)%3, (ti*200+i+1)*2654435761, i*ti)
		}
		tiles = append(tiles, buildTile(t, src...))
	}
	st := stats.New(0, 0)
	for _, tl := range tiles {
		st.AddTile(tl)
	}
	serial, index := encode(tiles, st, 1)
	for _, workers := range []int{2, 8} {
		if got, gotIndex := encode(tiles, st, workers); string(got) != string(serial) || string(gotIndex) != string(index) {
			t.Fatalf("workers=%d: %d-byte stream differs from the serial %d bytes", workers, len(got), len(serial))
		}
	}
	store := blockstore.NewMem()
	if err := store.Put("s", serial); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(store, "s", nil)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer r.Close()
	if r.NumTiles() != len(tiles) {
		t.Fatalf("%d tiles, want %d", r.NumTiles(), len(tiles))
	}
	for ti := range tiles {
		if _, _, err := r.Docs(ti); err != nil {
			t.Fatalf("tile %d docs: %v", ti, err)
		}
	}
}
