package storage

import "repro/internal/stats"

// Concat appends b's tiles to a's — the in-memory incremental-insert
// path appends freshly materialized partitions to the existing tiles.
// Both must be in-memory Tiles relations (tiles are independent
// chunks; statistics re-aggregate). Directory tables append through
// DirTable.AppendTiles.
func Concat(name string, a, b Relation) Relation {
	ta, tb := a.(*tilesRelation), b.(*tilesRelation)
	merged := &tilesRelation{name: name, cfg: ta.cfg, metrics: ta.metrics,
		numRows: ta.numRows + tb.numRows, stats: stats.New(0, 0)}
	merged.tiles = append(merged.tiles, ta.tiles...)
	merged.tiles = append(merged.tiles, tb.tiles...)
	for _, t := range merged.tiles {
		merged.stats.AddTile(t)
	}
	return merged
}
