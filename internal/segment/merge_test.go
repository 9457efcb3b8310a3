package segment

import (
	"bytes"
	"fmt"
	"reflect"
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
