package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/reorder"
	"repro/internal/tile"
)

// TestParallelTileBuildsKeepOrder: the tiles of a partition build on
// several workers from the walks the reorder hands over, yet come out
// exactly as a serial reorder-then-cut that walks each tile afresh
// builds them, tile by tile, column by column and row by row.
func TestParallelTileBuildsKeepOrder(t *testing.T) {
	var data [][]byte
	for i := 0; i < 2*4*16+21; i++ { // two full partitions and a partial one
		switch i % 3 {
		case 0:
			data = append(data, []byte(fmt.Sprintf(`{"a":%d,"b":"x%d"}`, i, i)))
		case 1:
			data = append(data, []byte(fmt.Sprintf(`{"c":%d.5,"d":[%d]}`, i, i)))
		default:
			data = append(data, []byte(fmt.Sprintf(`{"e":true,"f":{"g":%d}}`, i)))
		}
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize, cfg.Tile.PartitionSize = 16, 4
	rel, err := BuildTilesFromLines("t", data, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rel.(TileIntrospector).Tiles()

	var want []*tile.Tile
	part := cfg.Tile.TileSize * cfg.Tile.PartitionSize
	for lo := 0; lo < len(data); lo += part {
		var tapes []*jsontape.Doc
		for _, line := range data[lo:min(lo+part, len(data))] {
			d := new(jsontape.Doc)
			if err := jsontape.Parse(line, d); err != nil {
				t.Fatal(err)
			}
			tapes = append(tapes, d)
		}
		reorder.PartitionTapes(tapes, cfg.Tile, nil)
		for tlo := 0; tlo < len(tapes); tlo += cfg.Tile.TileSize {
			want = append(want, tile.NewBuilder(cfg.Tile, nil).BuildTape(tapes[tlo:min(tlo+cfg.Tile.TileSize, len(tapes))]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d tiles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].NumRows() != want[i].NumRows() || !reflect.DeepEqual(got[i].Columns(), want[i].Columns()) {
			t.Fatalf("tile %d: %d rows / %d columns, want %d / %d, or the columns differ", i,
				got[i].NumRows(), len(got[i].Columns()), want[i].NumRows(), len(want[i].Columns()))
		}
		for r := 0; r < want[i].NumRows(); r++ {
			if !bytes.Equal(got[i].RawBytes(r), want[i].RawBytes(r)) {
				t.Fatalf("tile %d row %d differs", i, r)
			}
		}
	}
}
