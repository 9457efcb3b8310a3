package segment

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tile"
)

// TestEncodeCutsBelowTiles: at two workers, encoding a skewed pair of
// tiles — rich documents beside short ones, as a stream of tweets and
// delete records reorders into — dispatches every stage in morsels
// smaller than a tile: runs of splitRun documents count and write the
// split, then each block compresses on its own. The stream is the one
// a single worker writes, and every document reads back whole.
func TestEncodeCutsBelowTiles(t *testing.T) {
	const rows = 1024
	var rich, short []string
	for i := 0; i < rows; i++ {
		rich = append(rich, fmt.Sprintf(`{"id":%d,"text":"tweet %d %s","user":{"id":%d,"name":"u%d"},"lang":"en","n":%d}`,
			i, i, strings.Repeat("y", i%50), i%97, i%97, i%13))
		short = append(short, fmt.Sprintf(`{"delete":{"status":{"id":%d,"user_id":%d}}}`, i, i%97))
	}
	tiles := []*tile.Tile{buildTile(t, rich...), buildTile(t, short...)}
	st := stats.New(0, 0)
	for _, tl := range tiles {
		st.AddTile(tl)
	}
	var stages []int
	parallelFor = func(ctx context.Context, n, workers int, fn func(worker, i int)) int {
		stages = append(stages, n)
		return sched.For(ctx, n, workers, fn)
	}
	t.Cleanup(func() { parallelFor = sched.For })
	seg, _ := encode(tiles, st, 2)
	runs, blocks := 2*rows/splitRun, 0
	for _, tl := range tiles {
		blocks += len(tl.Columns()) + 1 // and the document parts: at least the residual
	}
	if len(stages) != 3 || stages[0] < runs || stages[1] != runs || stages[2] < blocks+1 {
		t.Fatalf("stages dispatched %v morsels, want ≥ %d, %d, > %d: runs of %d documents, then blocks",
			stages, runs, runs, blocks, splitRun)
	}
	if one, _ := encode(tiles, st, 1); !bytes.Equal(seg, one) {
		t.Fatal("two workers write another stream than one")
	}
	checkDocsRoundTrip(t, "skewed", tiles)
}
