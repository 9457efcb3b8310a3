package segment

import (
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/column"
	"repro/internal/keypath"
	"repro/internal/obs"
)

// readAll reads every column and the documents of every tile and
// returns the columns in (tile, column) order.
func readAll(t *testing.T, r *Reader, tenant string) []*column.Column {
	t.Helper()
	var cols []*column.Column
	for ti := 0; ti < r.NumTiles(); ti++ {
		for ci := range r.Tile(ti).Columns {
			c, _, err := r.ColumnT(tenant, ti, ci)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, c)
		}
		docs, _, err := r.DocsT(tenant, ti)
		if err != nil || len(docs) != r.Tile(ti).Rows {
			t.Fatalf("tile %d docs: %d of %d, err %v", ti, len(docs), r.Tile(ti).Rows, err)
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

	blocks := int64(1) // docs
	for _, cm := range r.Tile(0).Columns {
		blocks++
		if cm.HasDict {
			blocks++
		}
	}
	decodedBlocks := int64(len(r.Tile(0).Columns) + 1) // a dictionary decodes with its codes

	base := obs.SegmentBlocksDecoded.Load()
	first := readAll(t, r, "")
	if got := obs.SegmentBlocksDecoded.Load() - base; got != decodedBlocks {
		t.Errorf("first pass decoded %d blocks, want %d", got, decodedBlocks)
	}
	resident := pool.Stats().Resident

	// Concurrent warm readers under two tenants: same columns, no
	// decode, every block access a hit, residency unchanged.
	base = obs.SegmentBlocksDecoded.Load()
	hits := pool.Stats().Hits
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b"}[g%2]
			for i, c := range readAll(t, r, tenant) {
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
	ps := pool.Stats()
	if ps.Hits-hits != 8*blocks || ps.Resident != resident || ps.PinnedBytes != 0 {
		t.Errorf("warm passes: %d hits (want %d), resident %d (want %d), pinned %d",
			ps.Hits-hits, 8*blocks, ps.Resident, resident, ps.PinnedBytes)
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
	for i, c := range readAll(t, r, "") {
		if c == first[i] {
			t.Errorf("column %d survived DropFile in the pool", i)
		}
	}
	if got := obs.SegmentBlocksDecoded.Load() - base; got != decodedBlocks {
		t.Errorf("pass after DropFile decoded %d blocks, want %d", got, decodedBlocks)
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
