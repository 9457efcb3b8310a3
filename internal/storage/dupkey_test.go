package storage

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/vec"
)

// A repeated key means its last occurrence, whichever way the access
// is served. The document below answers data->>'a'::BigInt with 3 from
// an extracted column; before the encoder kept only the last of equal
// keys, the JSONB fallback answered 2 (the binary search landed on the
// middle one of three equal keys) and the tape said 1 (first wins).
func TestRepeatedKeyLastOccurrenceWins(t *testing.T) {
	const dup = `{"a":1,"b":5,"a":2,"c":7,"a":3,"d":1,"e":2}`
	a := NewAccess(expr.TBigInt, "a")

	var d jsontape.Doc
	if err := jsontape.Parse([]byte(dup), &d); err != nil {
		t.Fatal(err)
	}
	if n, ok := keypath.LookupTape(&d, a.Path); !ok || n.IntVal() != 3 {
		t.Errorf("tape: a = %v (found %v), want 3", n.IntVal(), ok)
	}

	// 90 of 100: the tile extracts "a" (column). 10 of 100: it does not
	// (JSONB fallback).
	for _, dups := range []int{90, 10} {
		lines := make([][]byte, 0, 100)
		for i := 0; i < 100; i++ {
			if i%10 < dups/10 {
				lines = append(lines, []byte(dup))
			} else {
				lines = append(lines, []byte(fmt.Sprintf(`{"x":%d,"y":"other"}`, i)))
			}
		}
		cfg := DefaultLoaderConfig()
		cfg.Tile.TileSize = 128
		for _, k := range []FormatKind{KindTiles, KindJSONB, KindJSON} {
			l, _ := NewLoader(k, cfg)
			rel, err := l.Load("dup", lines, 2)
			if err != nil {
				t.Fatal(err)
			}
			if k == KindTiles {
				extracted := len(rel.(TileIntrospector).Tiles()[0].ColumnsForPath(a.PathEnc)) > 0
				if extracted != (dups == 90) {
					t.Fatalf("%d duplicates: column extracted = %v", dups, extracted)
				}
			}
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s dups=%d workers=%d", k, dups, workers)
				check := func(path string, v expr.Value) {
					if !v.Null && v.I != 3 {
						t.Errorf("%s %s: a = %v, want 3", label, path, v)
					}
				}
				var rows atomic.Int64
				scanRows(context.Background(), rel, []Access{a}, workers, func(_ int, row []expr.Value) {
					check("rows", row[0])
					if !row[0].Null {
						rows.Add(1)
					}
				}, nil)
				if rows.Load() != int64(dups) {
					t.Errorf("%s rows: %d non-NULL cells, want %d", label, rows.Load(), dups)
				}
				if bs, ok := rel.(BatchScanner); ok {
					bs.ScanBatches(context.Background(), []Access{a}, workers, func(_ int, b *vec.Batch) {
						for _, i := range b.Selected() {
							check("batches", b.Cols[0].Value(int(i)))
						}
					}, nil)
				}
			}
		}
	}
}
