package storage

import (
	"context"

	"repro/internal/obs"
)

// Batch scanning over JSON tiles: each tile becomes one column batch,
// each access filled as its plan (resolve.go) says — the tile
// column's own vector, a BigInt column widened to Float in a typed
// copy, an all-NULL vector, or a typed vector filled cell by cell from
// the column or the binary JSON (boxed for ::JSON alone). The loop itself lives in the scan core
// (scancore.go), shared with the disk-backed directory table.

// ScanBatches implements BatchScanner via the shared scan core: one
// batch per surviving tile.
func (r *tilesRelation) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	scanBatchesCore(ctx, r, accesses, workers, emit, st)
}
