package storage

// A directory table's scans read segments through lazy per-tile views:
// only the blocks a query touches leave the store, through the buffer
// pool.

import (
	"fmt"

	"repro/internal/jsonb"
	"repro/internal/keypath"
	"repro/internal/segment"
	"repro/internal/tile"
)

// segTileView is a per-scan lazy view of one tile. Metadata queries
// (row count, skip checks, access plans) answer from the footer;
// column data and fallback documents load through the buffer pool on
// first access and stay cached in the view for the rest of the scan.
// Views are per-worker and never shared, so no locking.
type segTileView struct {
	r    *segment.Reader
	ti   int
	meta *segment.TileMeta
	cnt  *scanCounters

	cols   []tile.ColumnInfo // Col nil until loaded
	parts  [][][]byte        // per document part, nil until loaded
	join   segment.Joiner
	rows   [][]byte // per row, its document once Raw reassembled it
	arena  []byte   // holds the reassembled documents
	joined []byte   // Raw's scratch: the document being reassembled
}

// arenaChunk is the least a view allocates at a time to hold the
// documents Raw reassembles: a tile's rows share a few allocations,
// each filled to within one document of its end.
const arenaChunk = 64 << 10

func (v *segTileView) NumRows() int                     { return v.meta.Rows }
func (v *segTileView) MayContainPath(path string) bool  { return v.meta.MayContainPath(path) }
func (v *segTileView) ColumnsForPath(path string) []int { return v.meta.ColumnsForPath(path) }

func (v *segTileView) ColumnType(idx int) (keypath.ValueType, bool) {
	return v.meta.Columns[idx].StorageType, v.meta.Columns[idx].HasTypeOutliers
}

// scanFault carries a block read error from a view to the scan core's
// morsel loop, which stops the scan: a view fabricates no cell (§4.5).
type scanFault struct{ err error }

// Column lazily materializes one extracted column. A block that fails
// its checksum or decode faults the scan (scanFault).
func (v *segTileView) Column(idx int) *tile.ColumnInfo {
	if v.cols == nil {
		v.cols = make([]tile.ColumnInfo, len(v.meta.Columns))
	}
	if v.cols[idx].Col == nil {
		cm := &v.meta.Columns[idx]
		col, err := v.r.ColumnT(v.cnt.tenant, v.ti, idx, &v.cnt.ScanCounts)
		if err != nil {
			panic(scanFault{err})
		}
		v.cols[idx] = tile.ColumnInfo{
			Path:            cm.Path,
			MinedType:       cm.MinedType,
			StorageType:     cm.StorageType,
			HasTypeOutliers: cm.HasTypeOutliers,
			Col:             col,
		}
	}
	return &v.cols[idx]
}

// part lazily loads part p of the tile's documents
// (segment.TileMeta.DocPart); an unreadable block faults the scan
// (scanFault).
func (v *segTileView) part(p int) [][]byte {
	if v.parts == nil {
		v.parts = make([][][]byte, len(v.meta.Docs)+1)
	}
	if v.parts[p] == nil {
		dir, err := v.r.DocPartT(v.cnt.tenant, v.ti, p, &v.cnt.ScanCounts)
		if err != nil {
			panic(scanFault{err})
		}
		v.parts[p] = dir
	}
	return v.parts[p]
}

// Members loads the part of the documents holding key: its own, of
// key's values, or the residual (whole), of objects holding the rest.
func (v *segTileView) Members(key string) ([][]byte, bool) {
	p := v.meta.DocPart(key)
	return v.part(p), p == len(v.meta.Docs)
}

// Raw reassembles row i's whole document from every part, once per
// view: a scan that reads the document for several accesses, or one
// access after another, rebuilds it a single time. A document whose
// parts do not fit together faults the scan (scanFault).
func (v *segTileView) Raw(i int) jsonb.Doc {
	if v.rows == nil {
		for p := 0; p <= len(v.meta.Docs); p++ {
			v.part(p)
		}
		v.rows = make([][]byte, v.meta.Rows)
	}
	if v.rows[i] == nil {
		var err error
		if v.joined, err = v.join.Join(v.joined[:0], v.meta, v.parts, i); err != nil {
			panic(scanFault{fmt.Errorf("segment %s tile %d: %w", v.r.Name(), v.ti, err)})
		}
		if len(v.joined) > cap(v.arena)-len(v.arena) {
			v.arena = make([]byte, 0, max(arenaChunk, len(v.joined)))
		}
		at := len(v.arena)
		v.arena = append(v.arena, v.joined...)
		v.rows[i] = v.arena[at:len(v.arena):len(v.arena)]
	}
	return jsonb.NewDoc(v.rows[i])
}
