package storage

import (
	"context"

	"repro/internal/expr"
	"repro/internal/jsontext"
	"repro/internal/obs"
	"repro/internal/stats"
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

// ScanWithStats implements StatsScanner (rows only; the text format
// re-parses every document, there is nothing columnar to hit).
func (r *rawJSON) ScanWithStats(ctx context.Context, accesses []Access, workers int, emit EmitFunc, st *obs.ScanStats) {
	morselRangeCtx(ctx, len(r.lines), workers, func(w, lo, hi int) {
		cnt := scanCounters{morsels: 1}
		defer cnt.flush(st)
		cnt.rows = int64(hi - lo)
		row := make([]expr.Value, len(accesses))
		for i := lo; i < hi; i++ {
			doc, err := jsontext.Parse(r.lines[i])
			if err != nil {
				continue // unreachable: validated at load
			}
			for ai, a := range accesses {
				row[ai] = treeAccess(doc, a.Path, a.Type, &cnt)
			}
			emit(w, row)
		}
	})
}
