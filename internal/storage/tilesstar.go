package storage

import (
	"fmt"

	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/tile"
)

// TilesStar is the §6.3 "Tiles-*" configuration: JSON tiles for the
// main collection plus separate JSON-tiles relations for detected
// high-cardinality arrays. Each array element becomes one document of
// the side relation, tagged with its parent's identifier and slot
// index; queries join the side relation back to the base table
// instead of probing a bounded number of leading slots.
type TilesStar struct {
	// Main is the base Tiles relation.
	Main Relation
	// Sides maps the array path (encoded) to its side relation.
	Sides map[string]Relation
}

// ParentField and IndexField are the bookkeeping keys added to each
// side-relation document.
const (
	ParentField = "_parent"
	IndexField  = "_idx"
)

// BuildTilesStar loads the main Tiles relation and one side relation
// per given high-cardinality array path. idPath identifies the parent
// document (e.g. "id" for tweets). The detection of which arrays
// deserve extraction is the orthogonal problem of [19, 54] (paper
// §3.5); callers name them explicitly, as the paper does (hashtags,
// mentions).
func BuildTilesStar(name string, lines [][]byte, cfg LoaderConfig, workers int,
	idPath keypath.Path, arrayPaths ...keypath.Path) (*TilesStar, error) {

	tapes, err := parseAllTapes(lines, workers)
	if err != nil {
		return nil, err
	}
	obs.IngestDocsTape.Add(int64(len(tapes)))
	star := &TilesStar{Sides: map[string]Relation{}}
	star.Main = buildPartitions(name, len(tapes), cfg, workers, nil, func(pb *partBuilder, lo, hi int) []*tile.Tile {
		return pb.tapes(tapes[lo:hi])
	})

	// Side documents are small synthesized objects: each materializes
	// only the parent id and one array element, and is serialized for
	// the same tape build as the main relation.
	for _, ap := range arrayPaths {
		var sideLines [][]byte
		for _, d := range tapes {
			pn, ok := keypath.LookupTape(d, idPath)
			if !ok {
				continue
			}
			an, ok := keypath.LookupTape(d, ap)
			if !ok || an.Kind() != jsontape.KArr {
				continue
			}
			parent := pn.Materialize()
			for i := 0; i < an.Count(); i++ {
				el, _ := an.Elem(i)
				sideLines = append(sideLines, jsontext.Serialize(sideDoc(parent, i, el.Materialize())))
			}
		}
		enc := ap.Encode()
		side, err := BuildTilesFromLines(fmt.Sprintf("%s[%s]", name, enc), sideLines, cfg, workers, nil)
		if err != nil {
			return nil, err
		}
		star.Sides[enc] = side
	}
	return star, nil
}

// sideDoc synthesizes one side-relation document from a parent id,
// slot index, and array element.
func sideDoc(parent jsonvalue.Value, idx int, el jsonvalue.Value) jsonvalue.Value {
	members := []jsonvalue.Member{
		jsonvalue.M(ParentField, parent),
		jsonvalue.M(IndexField, jsonvalue.Int(int64(idx))),
	}
	if el.Kind() == jsonvalue.KindObject {
		members = append(members, el.Members()...)
	} else {
		members = append(members, jsonvalue.M("value", el))
	}
	return jsonvalue.Object(members...)
}

// Side returns the side relation for an array path.
func (s *TilesStar) Side(arrayPath keypath.Path) (Relation, bool) {
	r, ok := s.Sides[arrayPath.Encode()]
	return r, ok
}

// SizeBytes sums main and side storage.
func (s *TilesStar) SizeBytes() int {
	total := s.Main.SizeBytes()
	for _, r := range s.Sides {
		total += r.SizeBytes()
	}
	return total
}
