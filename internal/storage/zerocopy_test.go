package storage

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/column"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/vec"
)

// TestZeroCopyAccessIsTheColumn pins the zero-copy plan: for every
// storage type (BigInt, Double, Bool, Timestamp, arena text, and
// dictionary text at code widths 1 and 2) an access the tile's column
// serves as it is emits the column's own vector: the same backing
// arrays, Type, Dict and Nulls. It checks a tile in memory and the
// pooled column of a warm directory-table segment.
func TestZeroCopyAccessIsTheColumn(t *testing.T) {
	const n = 1000
	lines := make([][]byte, n)
	for i := range lines {
		if i%10 == 9 { // every path but f has NULLs
			lines[i] = fmt.Appendf(nil, `{"f":%g}`, float64(i)+0.5)
			continue
		}
		lines[i] = fmt.Appendf(nil, `{"i":%d,"f":%g,"b":%t,"ts":"2020-01-%02d 10:00:00","s":"row-%d","d1":"level-%d","d2":"host-%03d"}`,
			i, float64(i)+0.5, i%3 == 0, 1+i%28, i, i%5, i%300)
	}
	accesses := []Access{
		NewAccess(expr.TBigInt, "i"), NewAccess(expr.TFloat, "f"), NewAccess(expr.TBool, "b"),
		NewAccess(expr.TTimestamp, "ts"), NewAccess(expr.TText, "s"),
		NewAccess(expr.TText, "d1"), NewAccess(expr.TText, "d2"),
	}
	storageTypes := []keypath.ValueType{keypath.TypeBigInt, keypath.TypeDouble, keypath.TypeBool,
		keypath.TypeTimestamp, keypath.TypeString, keypath.TypeString, keypath.TypeString}
	codeWidths := []int{4: 0, 5: 1, 6: 2} // arena, then 1- and 2-byte codes

	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = n
	cfg.Reorder = false
	rel, err := BuildTilesFromLines("t", lines, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tiles := rel.(TileIntrospector).Tiles()
	if len(tiles) != 1 {
		t.Fatalf("%d tiles, want 1", len(tiles))
	}
	hs := headerPaths(accesses, cfg.Tile.MaxArraySlots)
	for ai, a := range accesses {
		if p := planAccess(tiles[0], a, hs[ai]); p.serve != serveZero {
			t.Fatalf("%s: plan %d, want zero-copy", a.PathEnc, p.serve)
		}
	}

	// check scans rel once and compares each emitted vector with the
	// column colOf returns for its access.
	check := func(label string, rel Relation, colOf func(a Access) *column.Column) {
		t.Helper()
		var got []vec.Vector
		rel.ScanBatches(context.Background(), accesses, 1, func(_ int, b *vec.Batch) {
			got = append(got, b.Cols...)
		}, nil)
		if len(got) != len(accesses) {
			t.Fatalf("%s: %d vectors, want one batch of %d", label, len(got), len(accesses))
		}
		for ai, a := range accesses {
			v, col := got[ai], colOf(a)
			if col.Type() != storageTypes[ai] || codeWidth(col) != codeWidths[ai] {
				t.Fatalf("%s %s: a %v column with %d-byte codes, want %v and %d", label, a.PathEnc,
					col.Type(), codeWidth(col), storageTypes[ai], codeWidths[ai])
			}
			if v.Type != col.Vector.Type || v.Dict != col.Dict {
				t.Errorf("%s %s: Type %v Dict %v, the column's %v %v", label, a.PathEnc, v.Type, v.Dict, col.Vector.Type, col.Dict)
			}
			if !sameArray(v.Nulls, col.Nulls) || !sameArray(v.Ints, col.Ints) || !sameArray(v.Floats, col.Floats) ||
				!sameArray(v.Bools, col.Bools) || !sameArray(v.StrOff, col.StrOff) || !sameArray(v.StrBytes, col.StrBytes) ||
				!sameArray(v.Codes8, col.Codes8) || !sameArray(v.Codes16, col.Codes16) || !sameArray(v.Codes32, col.Codes32) {
				t.Errorf("%s %s: the vector does not alias the column's arrays", label, a.PathEnc)
			}
			if (ai == 1) != (col.Nulls == nil) {
				t.Errorf("%s %s: Nulls %v, want NULLs on every path but f", label, a.PathEnc, col.Nulls != nil)
			}
		}
	}
	check("in memory", rel, func(a Access) *column.Column {
		return tiles[0].Column(tiles[0].ColumnsForPath(a.PathEnc)[0]).Col
	})

	dt, err := OpenDirStore("t", blockstore.NewMem(), bufpool.New(64<<20), cfg, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if err := dt.AppendTiles(tiles, rel.Stats(), 2); err != nil {
		t.Fatal(err)
	}
	segs := dt.snapshot()
	defer releaseSegs(segs)
	r := segs[0].r
	dt.ScanBatches(context.Background(), accesses, 1, func(int, *vec.Batch) {}, nil) // warms the pool
	check("warm segment", dt, func(a Access) *column.Column {
		col, _, err := r.Column(0, r.Tile(0).ColumnsForPath(a.PathEnc)[0])
		if err != nil {
			t.Fatal(err)
		}
		return col
	})
}

// sameArray reports whether a and b are the same array: one backing,
// one length.
func sameArray[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b)
}

// codeWidth is the byte width of col's dictionary codes, 0 for arena
// text and every other type.
func codeWidth(col *column.Column) int {
	switch {
	case col.Codes8 != nil:
		return 1
	case col.Codes16 != nil:
		return 2
	case col.Codes32 != nil:
		return 4
	}
	return 0
}
