package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/column"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/xxhash"
)

// readAll reads every column and the documents of every tile and
// returns the columns in (tile, column) order, counting its block
// accesses into cnt.
func readAll(t *testing.T, r *Reader, tenant string, cnt *obs.ScanCounts) []*column.Column {
	t.Helper()
	var cols []*column.Column
	for ti := 0; ti < r.NumTiles(); ti++ {
		for ci := range r.Tile(ti).Columns {
			c, err := r.ColumnT(tenant, ti, ci, cnt)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, c)
		}
		for p := 0; p <= len(r.Tile(ti).Docs); p++ {
			dir, err := r.DocPartT(tenant, ti, p, cnt)
			if err != nil || len(dir) != r.Tile(ti).Rows {
				t.Fatalf("tile %d docs part %d: %d of %d, err %v", ti, p, len(dir), r.Tile(ti).Rows, err)
			}
		}
	}
	return cols
}

// A block is decoded on the first access of a pool residency and the
// decoded column is then shared: same pointer for every caller and
// tenant, no decode counted, pool accounting as before; dropping the
// file ends the residency.
func TestColumnDecodedOncePerResidency(t *testing.T) {
	store := putSegment(t, buildDictTile(t, 200)) // a dictionary column beside plain ones
	pool := bufpool.New(0)
	r, err := OpenStore(store, testSeg, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	parts := int64(len(r.Tile(0).Docs) + 1) // the documents' parts
	blocks := parts
	for _, cm := range r.Tile(0).Columns {
		blocks++
		if cm.HasDict {
			blocks++
		}
	}
	decodedBlocks := int64(len(r.Tile(0).Columns)) + parts // a dictionary decodes with its codes

	base := obs.SegmentBlocksDecoded.Load()
	first := readAll(t, r, "", new(obs.ScanCounts))
	if got := obs.SegmentBlocksDecoded.Load() - base; got != decodedBlocks {
		t.Errorf("first pass decoded %d blocks, want %d", got, decodedBlocks)
	}
	resident := pool.Stats().Resident

	// Concurrent warm readers under two tenants: same columns, no
	// decode, every block access a hit, residency unchanged.
	base = obs.SegmentBlocksDecoded.Load()
	counts := make([]obs.ScanCounts, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b"}[g%2]
			for i, c := range readAll(t, r, tenant, &counts[g]) {
				if c != first[i] {
					t.Errorf("reader %d: column %d is a different *Column on a warm read", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := obs.SegmentBlocksDecoded.Load() - base; got != 0 {
		t.Errorf("warm passes decoded %d blocks, want 0", got)
	}
	var warm obs.ScanCounts
	for g := range counts {
		warm.Add(&counts[g])
	}
	ps := pool.Stats()
	if warm.PoolHits != 8*blocks || ps.Resident != resident || ps.PinnedBytes != 0 {
		t.Errorf("warm passes: %d hits (want %d), resident %d (want %d), pinned %d",
			warm.PoolHits, 8*blocks, ps.Resident, resident, ps.PinnedBytes)
	}

	// The columns the reader hands out are shared: in-place updates
	// must be unreachable.
	for _, c := range first {
		if c.Type() == keypath.TypeBigInt {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("SetInt on a reader's column did not panic")
					}
				}()
				c.SetInt(0, 1)
			}()
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("SetNull on a reader's column did not panic")
				}
			}()
			c.SetNull(0)
		}()
	}

	// DropFile (compaction, Close) ends the residency: nothing decoded
	// stays reachable from the pool, and the next access decodes anew.
	pool.DropFile(r.fileID)
	if got := pool.Stats().Resident; got != 0 {
		t.Errorf("resident after DropFile = %d, want 0", got)
	}
	base = obs.SegmentBlocksDecoded.Load()
	for i, c := range readAll(t, r, "", new(obs.ScanCounts)) {
		if c == first[i] {
			t.Errorf("column %d survived DropFile in the pool", i)
		}
	}
	if got := obs.SegmentBlocksDecoded.Load() - base; got != decodedBlocks {
		t.Errorf("pass after DropFile decoded %d blocks, want %d", got, decodedBlocks)
	}

	// A block fetched ahead stays compressed until its first use: the
	// pool books its stored bytes, then what its decoded form retains,
	// the same as a demand load ends with.
	pool.DropFile(r.fileID)
	refs := tileRefs(r.Tile(0))
	var stored int64
	for _, ref := range refs {
		stored += int64(ref.StoredLen)
	}
	runs, planned := r.PlanFetch(refs)
	if planned != stored {
		t.Errorf("PlanFetch planned %d bytes, the blocks store %d", planned, stored)
	}
	if fi := r.Fetch("", runs, true); fi.PoolMisses != blocks {
		t.Fatalf("fetch inserted %d blocks, want %d", fi.PoolMisses, blocks)
	}
	if got := pool.Stats().Resident; got != stored {
		t.Errorf("resident after fetch = %d, want the %d stored bytes", got, stored)
	}
	base = obs.SegmentBlocksDecoded.Load()
	readAll(t, r, "", new(obs.ScanCounts))
	if got := obs.SegmentBlocksDecoded.Load() - base; got != decodedBlocks {
		t.Errorf("pass after fetch decoded %d blocks, want %d", got, decodedBlocks)
	}
	if got := pool.Stats().Resident; got != resident || got == stored {
		t.Errorf("resident after decoding the fetched blocks = %d, want %d (stored %d)", got, resident, stored)
	}
}

// tileRefs lists every block of a tile: document parts, column codes
// and dictionaries.
func tileRefs(tm *TileMeta) []BlockRef {
	var refs []BlockRef
	for p := 0; p <= len(tm.Docs); p++ {
		refs = append(refs, tm.DocRef(p))
	}
	for _, cm := range tm.Columns {
		refs = append(refs, cm.Block)
		if cm.HasDict {
			refs = append(refs, cm.Dict)
		}
	}
	return refs
}

// badLZ4Segment returns the bytes of a one-tile dictionary segment
// whose residual document part and dictionary block hold LZ4 streams that do
// not decode, under checksums that match them: corruption only a
// decompression can see. It also returns the dictionary column's index.
func badLZ4Segment(t testing.TB) ([]byte, int) {
	t.Helper()
	store := putSegment(t, buildDictTile(t, 200))
	r, err := OpenStore(store, testSeg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := blockstore.ReadAll(store, testSeg)
	if err != nil {
		t.Fatal(err)
	}
	tm := &r.tiles[0]
	dictCol := -1
	bad := []*BlockRef{&tm.Rest}
	for ci := range tm.Columns {
		if tm.Columns[ci].HasDict {
			dictCol = ci
			bad = append(bad, &tm.Columns[ci].Dict)
		}
	}
	if dictCol < 0 {
		t.Fatal("no dictionary column")
	}
	for _, ref := range bad {
		stored := data[ref.Off:][:ref.StoredLen]
		for i := range stored {
			stored[i] = 0xFF // a literal run longer than the stream
		}
		ref.Codec, ref.Sum = codecLZ4, xxhash.Sum64(stored)
	}
	footerOff := binary.LittleEndian.Uint64(data[len(data)-TailSize:])
	seg, _ := appendFooter(data[:footerOff:footerOff], r.tiles, r.stats.MarshalBinary())
	return seg, dictCol
}

// TestCorruptLZ4BlockFailsAtDecode: a block whose checksum matches but
// whose LZ4 stream does not decode is cached as stored, so the error
// comes from its first decode, on the demand path and after a fetch
// alike. It names the object and the block's range, nothing decoded is
// cached (a second read fails the same way, from the resident stored
// bytes), and nothing stays pinned.
func TestCorruptLZ4BlockFailsAtDecode(t *testing.T) {
	data, dictCol := badLZ4Segment(t)
	store := blockstore.NewMem()
	store.Put(testSeg, data)
	pool := bufpool.New(0)
	r, err := OpenStore(store, testSeg, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tm := r.Tile(0)
	reads := []struct {
		name string
		ref  BlockRef
		read func() (hit bool, err error)
	}{
		{"docs", tm.Rest, func() (bool, error) {
			_, c, err := r.Docs(0)
			return c.PoolMisses == 0, err
		}},
		{"dict", tm.Columns[dictCol].Dict, func() (bool, error) {
			_, c, err := r.Column(0, dictCol)
			return c.PoolMisses == 0, err
		}},
	}
	for _, fetched := range []bool{false, true} {
		pool.DropFile(r.fileID)
		if fetched {
			runs, _ := r.PlanFetch(tileRefs(tm))
			r.Fetch("", runs, true)
		}
		for _, rd := range reads {
			label := fmt.Sprintf("%s fetched=%v", rd.name, fetched)
			want := fmt.Sprintf("%s: block [%d,+%d): lz4", testSeg, rd.ref.Off, rd.ref.StoredLen)
			var first string
			for attempt := 0; attempt < 2; attempt++ {
				hit, err := rd.read()
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s read %d: err %v, want ErrCorrupt naming %q", label, attempt, err, want)
				}
				if attempt == 0 {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("%s: second read failed with %q, first with %q", label, err, first)
				}
				if wantHit := fetched || attempt > 0; hit != wantHit {
					t.Errorf("%s read %d: hit %v, want %v", label, attempt, hit, wantHit)
				}
			}
		}
		if pinned := pool.Stats().PinnedBytes; pinned != 0 {
			t.Errorf("fetched=%v: %d bytes still pinned", fetched, pinned)
		}
	}
}

// A pool smaller than one tile's columns cannot keep them: every
// access decodes, the answers stay right, and nothing is retained
// beyond capacity.
func TestColumnDecodeInTinyPool(t *testing.T) {
	store, tiles, _ := writeTestSegment(t)
	pool := bufpool.New(64)
	r, err := OpenStore(store, testSeg, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pass := 0; pass < 2; pass++ {
		base := obs.SegmentBlocksDecoded.Load()
		var n int64
		for ti, tl := range tiles {
			for ci := range r.Tile(ti).Columns {
				got, _, err := r.Column(ti, ci)
				if err != nil {
					t.Fatal(err)
				}
				n++
				want := tl.Column(ci).Col
				for row := 0; row < want.Len(); row++ {
					if got.IsNull(row) != want.IsNull(row) || (!got.IsNull(row) && want.Type() == keypath.TypeBigInt && got.Int(row) != want.Int(row)) {
						t.Fatalf("pass %d tile %d column %d row %d differs", pass, ti, ci, row)
					}
				}
				if ps := pool.Stats(); ps.Resident > ps.Capacity {
					t.Fatalf("resident %d over capacity %d", ps.Resident, ps.Capacity)
				}
			}
		}
		if got := obs.SegmentBlocksDecoded.Load() - base; got != n {
			t.Errorf("pass %d decoded %d blocks of %d accesses", pass, got, n)
		}
	}
}

// TestAccessCounts: each kind of block access counts where it happens,
// into the reader's counts: the pool counts its hit or miss (a block a
// fetch made resident counts a prefetch hit on its first read when the
// fetch ran ahead of the scan, nothing when the scan's claim fetched
// it), the Reader a miss's store reads, retries and bytes and each
// block it decodes.
func TestAccessCounts(t *testing.T) {
	fake := blockstore.NewFakeS3(putSegment(t, buildDictTile(t, 200)), blockstore.FakeS3Config{})
	pool := bufpool.New(0)
	r, err := OpenStore(fake, testSeg, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tm := r.Tile(0)
	plain, dict := -1, -1
	for ci, cm := range tm.Columns {
		if cm.HasDict {
			dict = ci
		} else {
			plain = ci
		}
	}
	if plain < 0 || dict < 0 {
		t.Fatal("want a plain and a dictionary column")
	}
	block := tm.Columns[plain].Block
	codes, dictBlock := tm.Columns[dict].Block, tm.Columns[dict].Dict
	fetch := func(ahead bool) obs.ScanCounts {
		pool.DropFile(r.fileID)
		runs, _ := r.PlanFetch([]BlockRef{block})
		return r.Fetch("", runs, ahead)
	}
	fetched := obs.ScanCounts{PoolMisses: 1, StoreRangeReads: 1, StoreBytesRead: int64(block.StoredLen)}
	for _, tc := range []struct {
		name   string
		before func()
		col    int
		want   obs.ScanCounts
	}{
		{"cold miss after a transient failure, first decode", func() { fake.FailNextReads(1) }, plain,
			obs.ScanCounts{PoolMisses: 1, StoreRangeReads: 2, StoreRetries: 1, StoreBytesRead: int64(block.StoredLen), BlocksDecoded: 1}},
		{"warm hit", nil, plain, obs.ScanCounts{PoolHits: 1}},
		{"dictionary column, cold: codes and dictionary blocks", nil, dict,
			obs.ScanCounts{PoolMisses: 2, StoreRangeReads: 2, StoreBytesRead: int64(codes.StoredLen + dictBlock.StoredLen), BlocksDecoded: 1}},
		{"dictionary column, warm", nil, dict, obs.ScanCounts{PoolHits: 2}},
		{"first read of a window-prefetched block", func() {
			if c := fetch(true); c != fetched {
				t.Errorf("fetch ahead counted %+v, want %+v", c, fetched)
			}
		}, plain, obs.ScanCounts{StorePrefetchHits: 1, BlocksDecoded: 1}},
		{"first read of a claim-fetched block", func() {
			if c := fetch(false); c != fetched {
				t.Errorf("claim fetch counted %+v, want %+v", c, fetched)
			}
		}, plain, obs.ScanCounts{BlocksDecoded: 1}},
		{"read after a fetch", nil, plain, obs.ScanCounts{PoolHits: 1}},
	} {
		if tc.before != nil {
			tc.before()
		}
		_, c, err := r.Column(0, tc.col)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c != tc.want {
			t.Errorf("%s: counted %+v, want %+v", tc.name, c, tc.want)
		}
	}
}
