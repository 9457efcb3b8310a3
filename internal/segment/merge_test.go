package segment

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/stats"
	"repro/internal/tile"
)

// TestMergeFiles merges three segment objects into a fourth and checks
// that every tile serves the same columns and documents as its source.
func TestMergeFiles(t *testing.T) {
	store := blockstore.NewMem()
	pool := bufpool.New(bufpool.DefaultCapacity)
	var srcTiles [][]*tile.Tile
	var readers []*Reader
	for s := 0; s < 3; s++ {
		var docs []string
		for i := 0; i < 32; i++ {
			docs = append(docs, fmt.Sprintf(
				`{"seg":%d,"id":%d,"name":"n-%d-%d","price":%g}`, s, s*32+i, s, i, float64(i)*0.5))
		}
		tl := buildTile(t, docs...)
		st := stats.New(0, 0)
		st.AddTile(tl)
		name := fmt.Sprintf("src%d.seg", s)
		if _, err := WriteStore(store, name, []*tile.Tile{tl}, st); err != nil {
			t.Fatalf("WriteStore(%s): %v", name, err)
		}
		r, err := OpenStore(store, name, pool)
		if err != nil {
			t.Fatalf("OpenStore(%s): %v", name, err)
		}
		defer r.Close()
		srcTiles = append(srcTiles, []*tile.Tile{tl})
		readers = append(readers, r)
	}

	mr, err := MergeStore(store, "merged.seg", readers, pool)
	if err != nil {
		t.Fatalf("MergeStore: %v", err)
	}
	defer mr.Close()
	size, err := store.Size("merged.seg")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if mr.FileSize() != size {
		t.Errorf("merged Reader reports %d bytes, object is %d", mr.FileSize(), size)
	}
	// The Reader MergeStore returns is the one a footer-first open builds.
	or, err := OpenStore(store, "merged.seg", pool)
	if err != nil {
		t.Fatalf("OpenStore(merged): %v", err)
	}
	defer or.Close()
	if !reflect.DeepEqual(or.tiles, mr.tiles) || !bytes.Equal(or.Index(), mr.Index()) {
		t.Error("merged Reader's tile metadata differs from a reopen's")
	}
	if mr.NumTiles() != 3 {
		t.Fatalf("NumTiles = %d, want 3", mr.NumTiles())
	}
	if mr.NumRows() != 96 {
		t.Fatalf("NumRows = %d, want 96", mr.NumRows())
	}
	mst, err := mr.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := mst.RowCount(); got != 96 {
		t.Errorf("stats rows = %d, want 96", got)
	}
	if got := mst.PathCount("id"); got != 96 {
		t.Errorf("stats PathCount(id) = %d, want 96", got)
	}

	// Every merged tile must serve the same columns and documents as
	// its source tile.
	ti := 0
	for s, tiles := range srcTiles {
		for _, src := range tiles {
			tm := mr.Tile(ti)
			if tm.Rows != src.NumRows() {
				t.Fatalf("tile %d rows = %d, want %d", ti, tm.Rows, src.NumRows())
			}
			srcCols := src.Columns()
			if len(tm.Columns) != len(srcCols) {
				t.Fatalf("tile %d: %d columns, want %d", ti, len(tm.Columns), len(srcCols))
			}
			for ci := range tm.Columns {
				col, _, err := mr.Column(ti, ci)
				if err != nil {
					t.Fatalf("tile %d column %d: %v", ti, ci, err)
				}
				want := srcCols[ci].Col
				if col.Len() != want.Len() || col.Type() != want.Type() {
					t.Fatalf("tile %d column %q shape mismatch", ti, tm.Columns[ci].Path)
				}
				for i := 0; i < col.Len(); i++ {
					if col.IsNull(i) != want.IsNull(i) {
						t.Fatalf("tile %d column %q row %d null mismatch", ti, tm.Columns[ci].Path, i)
					}
				}
			}
			docs, _, err := mr.Docs(ti)
			if err != nil {
				t.Fatalf("tile %d docs: %v", ti, err)
			}
			if len(docs) != src.NumRows() {
				t.Fatalf("tile %d: %d docs, want %d", ti, len(docs), src.NumRows())
			}
			if !tm.MayContainPath("seg") {
				t.Fatalf("tile %d (source segment %d) lost its seen filter", ti, s)
			}
			ti++
		}
	}
}

// TestMergeReadsEachSourceOnce: a merge reads each source's data region
// in one ranged read, plus its footer when its statistics are not yet
// loaded (a Reader built from its tile index): at most 2k reads for k
// sources. The merged object reopens with every document intact.
func TestMergeReadsEachSourceOnce(t *testing.T) {
	mem := blockstore.NewMem()
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{})
	var tiles []*tile.Tile
	for s := 0; s < 3; s++ {
		var docs []string
		for i := 0; i < 40; i++ {
			docs = append(docs, fmt.Sprintf(`{"seg":%d,"id":%d,"user":{"name":"u-%d"},"tags":[%d,%d]}`, s, i, i, s, i))
		}
		tiles = append(tiles, buildTile(t, docs...))
	}
	var readers []*Reader
	for s, tl := range tiles {
		st := stats.New(0, 0)
		st.AddTile(tl)
		r, err := Write(mem, fmt.Sprintf("src%d.seg", s), []*tile.Tile{tl}, st, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		// Rebuilt from its index over the fake: statistics not loaded.
		if r, err = OpenIndexed(fake, r.Name(), nil, r.FileSize(), r.Index()); err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		readers = append(readers, r)
	}
	before := fake.RangeReadCount()
	mr, err := MergeStore(mem, "merged.seg", readers, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	if got, k := fake.RangeReadCount()-before, int64(len(readers)); got > 2*k {
		t.Errorf("merge of %d sources issued %d range reads, want at most %d", k, got, 2*k)
	}
	for ti, tl := range tiles {
		docs, _, err := mr.Docs(ti)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			if !bytes.Equal(d, tl.RawBytes(i)) {
				t.Fatalf("merged tile %d document %d differs from its source", ti, i)
			}
		}
	}
}

// TestMergeNamesCorruptBlock: a source block whose stored bytes no
// longer match its checksum fails the merge with ErrCorrupt naming the
// source, tile and block.
func TestMergeNamesCorruptBlock(t *testing.T) {
	store := putSegment(t, buildTile(t, `{"a":1,"b":"x"}`, `{"a":2,"b":"y"}`))
	r, err := OpenStore(store, testSeg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := blockstore.ReadAll(store, testSeg)
	if err != nil {
		t.Fatal(err)
	}
	ref := r.Tile(0).Columns[0].Block
	data = append([]byte(nil), data...)
	data[ref.Off] ^= 0xFF
	store.Put(testSeg, data)
	_, err = MergeStore(store, "merged.seg", []*Reader{r}, nil)
	want := fmt.Sprintf("source 0 tile 0 column %q: segment: corrupt segment file: %s: block [%d,+%d): checksum",
		r.Tile(0).Columns[0].Path, testSeg, ref.Off, ref.StoredLen)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Errorf("merge over a corrupt block: %v, want ErrCorrupt naming %q", err, want)
	}
}
