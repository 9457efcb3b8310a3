package storage

import (
	"context"

	"repro/internal/jsonb"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vec"
)

// jsonbStore keeps one binary JSON document per tuple (§5) — the
// "JSONB" competitor. Accesses avoid parsing but still traverse each
// document per tuple.
type jsonbStore struct {
	name string
	docs [][]byte
}

type jsonbLoader struct{ cfg LoaderConfig }

func (l jsonbLoader) Load(name string, lines [][]byte, workers int) (Relation, error) {
	// Parse and encode per document in one pass — the tree is never
	// materialized, and each worker reuses one pooled tape and encoder.
	encoded := make([][]byte, len(lines))
	err := parseEach(lines, workers, func(i int, s *ingestScratch) {
		encoded[i] = s.enc.EncodeTape(&s.doc)
	})
	if err != nil {
		return nil, err
	}
	return &jsonbStore{name: name, docs: encoded}, nil
}

func (r *jsonbStore) Name() string             { return r.name }
func (r *jsonbStore) NumRows() int             { return len(r.docs) }
func (r *jsonbStore) Stats() *stats.TableStats { return nil }

func (r *jsonbStore) SizeBytes() int {
	total := 0
	for _, d := range r.docs {
		total += len(d)
	}
	return total
}

// ScanBatches implements BatchScanner. Every access traverses the
// per-document binary JSON, so they all count as fallbacks — the
// baseline the tiles column-hit ratio is compared against.
func (r *jsonbStore) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	scanCells(ctx, len(r.docs), accesses, workers, emit, st, func(lo, hi int, cells []vec.Buf, cnt *scanCounters) {
		cnt.JSONBFallbacks += int64(hi-lo) * int64(len(accesses))
		for i := lo; i < hi; i++ {
			d := jsonb.NewDoc(r.docs[i])
			for ai, a := range accesses {
				if cur, ok := docLookup(d, a.Path.Segs); ok {
					docPut(&cells[ai], i-lo, cur, a.Type, cnt)
				}
			}
		}
	})
}

// Doc exposes row i (tests and the Tiles-* side-relation builder).
func (r *jsonbStore) Doc(i int) jsonb.Doc { return jsonb.NewDoc(r.docs[i]) }
