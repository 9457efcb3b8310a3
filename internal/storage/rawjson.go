package storage

import (
	"context"

	"repro/internal/jsontext"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vec"
)

// rawJSON stores every document as verbatim JSON text — the baseline
// "JSON" format. Every access during a scan re-parses the whole
// document, which is exactly the overhead the paper's JSON column
// measures.
type rawJSON struct {
	name  string
	lines [][]byte
}

type rawJSONLoader struct{ cfg LoaderConfig }

func (l rawJSONLoader) Load(name string, lines [][]byte, workers int) (Relation, error) {
	// Validate up front (a database rejects malformed documents at
	// insert); store the verbatim text.
	if err := parseEach(lines, workers, nil); err != nil {
		return nil, err
	}
	stored := make([][]byte, len(lines))
	for i, l := range lines {
		stored[i] = append([]byte(nil), l...)
	}
	return &rawJSON{name: name, lines: stored}, nil
}

func (r *rawJSON) Name() string             { return r.name }
func (r *rawJSON) NumRows() int             { return len(r.lines) }
func (r *rawJSON) Stats() *stats.TableStats { return nil }

func (r *rawJSON) SizeBytes() int {
	total := 0
	for _, l := range r.lines {
		total += len(l)
	}
	return total
}

// ScanBatches implements BatchScanner with every cell read from a
// parse tree: the text format re-parses every document, there is
// nothing columnar to hit.
func (r *rawJSON) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	scanCells(ctx, len(r.lines), accesses, workers, emit, st, func(lo, hi int, cells []vec.Buf, cnt *scanCounters) {
		for i := lo; i < hi; i++ {
			// Validated at load; were it not, the NULL an error returns
			// reads NULL at every path.
			doc, _ := jsontext.Parse(r.lines[i])
			for ai, a := range accesses {
				cells[ai].Value(i-lo, treeAccess(doc, a.Path, a.Type, cnt))
			}
		}
	})
}
