package storage

import (
	"context"

	"repro/internal/column"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Batch scanning over JSON tiles: each tile becomes one column batch,
// each access filled as its plan (resolve.go) says — a zero-copy slice
// of the tile's column, a BigInt column widened to Float in a typed
// copy, an all-NULL vector, or a boxed vector filled cell by cell from
// the column or the binary JSON. The loop itself lives in the scan core
// (scancore.go), shared with the disk-backed segment relation.

// zeroVec wraps a tile column's backing slices into a vector without
// copying.
func zeroVec(c *column.Column, t expr.SQLType) vec.Vector {
	v := vec.Vector{Type: t, Nulls: c.NullBits()}
	switch c.Type() {
	case keypath.TypeBigInt, keypath.TypeTimestamp:
		v.Ints = c.IntSlice()
	case keypath.TypeDouble:
		v.Floats = c.FloatSlice()
	case keypath.TypeBool:
		v.Bools = c.BoolBits()
	case keypath.TypeString:
		if c.IsDict() {
			v.Dict = true
			v.DictOff, v.DictBytes = c.DictData()
			_, v.Codes8, v.Codes16, v.Codes32 = c.Codes()
		} else {
			v.StrOff, v.StrBytes = c.StringData()
		}
	}
	return v
}

// ScanBatches implements BatchScanner via the shared scan core: one
// batch per surviving tile.
func (r *tilesRelation) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	scanBatchesCore(ctx, r, accesses, workers, emit, st)
}
