package storage

import (
	"context"

	"repro/internal/column"
	"repro/internal/expr"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Batch scanning over JSON tiles: each tile becomes one column batch.
// Accesses served by a materialized column whose storage type matches
// the requested SQL type are handed out as zero-copy slices of the
// tile's column data; a BigInt column accessed as Float is widened in
// a typed copy (still no boxing); provably-absent paths become
// all-NULL vectors; everything else — binary-JSON fallbacks, renders,
// type-outlier columns — is materialized cell-by-cell into a boxed
// vector through the per-row colResolver. The loop itself lives in the
// scan core (scancore.go), shared with the disk-backed segment
// relation.

type vecKind uint8

const (
	vkBoxed vecKind = iota
	vkZero
	vkIntToFloat
	vkNullAll
)

type batchResolver struct {
	kind vecKind
	col  *column.Column
	row  colResolver // boxed path: the row-at-a-time resolver
}

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

var _ BatchScanner = (*tilesRelation)(nil)

// ScanBatches implements BatchScanner via the shared scan core: one
// batch per surviving tile.
func (r *tilesRelation) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	scanBatchesCore(ctx, r, accesses, workers, emit, st)
}
