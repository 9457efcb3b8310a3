package jsontiles

import (
	"fmt"
	"testing"
)

// TestRecomputeAfterDrift exercises the full §4.7 lifecycle: build,
// update most rows of a tile to a new structure, observe the advice,
// recompute, and verify the new structure became columnar.
func TestRecomputeAfterDrift(t *testing.T) {
	o := DefaultOptions()
	o.TileSize = 32
	o.PartitionSize = 1
	o.Workers = 2
	var data [][]byte
	for i := 0; i < 64; i++ {
		data = append(data, []byte(fmt.Sprintf(`{"old_key":%d}`, i)))
	}
	tbl, err := Load("drift", data, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.Recompute(); n != 0 {
		t.Fatalf("fresh table recomputed %d tiles", n)
	}

	// Rewrite 20 of the first tile's 32 rows to a disjoint structure.
	advised := false
	for i := 0; i < 20; i++ {
		adv, err := tbl.Update(i, []byte(fmt.Sprintf(`{"new_key":"v%d"}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		advised = advised || adv
	}
	if !advised {
		t.Fatal("recompute never advised despite majority drift")
	}

	// Before recomputation the new structure is served via the binary
	// JSON fallback; results must already be correct.
	res, err := tbl.Query("data->>'new_key'").WhereNotNull(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 20 {
		t.Fatalf("pre-recompute rows = %d", res.NumRows())
	}

	if n := tbl.Recompute(); n != 1 {
		t.Fatalf("recomputed %d tiles, want 1", n)
	}
	// After recomputation the drifted tile extracts new_key as a column.
	foundNew := false
	for _, cols := range tbl.ExtractedPaths() {
		for _, c := range cols {
			if c == "new_key Text" {
				foundNew = true
			}
		}
	}
	if !foundNew {
		t.Errorf("new_key not extracted after recompute: %v", tbl.ExtractedPaths())
	}
	// Results unchanged.
	res, err = tbl.Query("data->>'new_key'").WhereNotNull(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 20 {
		t.Errorf("post-recompute rows = %d", res.NumRows())
	}
	// Old rows still intact.
	res, err = tbl.Query("data->>'old_key'::BigInt").WhereNotNull(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 44 {
		t.Errorf("old rows = %d, want 44", res.NumRows())
	}
	// Statistics rebuilt to reflect the new world.
	if got := tbl.Stats().PathCount("new_key"); got != 20 {
		t.Errorf("stats PathCount(new_key) = %d", got)
	}
}

// TestRecomputeCountedAfterFlushes: a table grown by two flushes keeps
// its load metrics, so recomputing a drifted tile of the second flush
// counts in LoadStats as it does after Load.
func TestRecomputeCountedAfterFlushes(t *testing.T) {
	o := DefaultOptions()
	o.TileSize = 32
	o.PartitionSize = 1
	o.Workers = 2
	tbl := New("drift", o)
	for i := 0; i < 64; i++ {
		if err := tbl.Insert([]byte(fmt.Sprintf(`{"old_key":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 32; i < 52; i++ {
		if _, err := tbl.Update(i, []byte(fmt.Sprintf(`{"new_key":"v%d"}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	built := tbl.LoadStats().TilesBuilt
	if n := tbl.Recompute(); n != 1 {
		t.Fatalf("recomputed %d tiles, want 1", n)
	}
	if got := tbl.LoadStats().TilesBuilt; got != built+1 {
		t.Errorf("TilesBuilt %d after the recompute, want %d", got, built+1)
	}
}
