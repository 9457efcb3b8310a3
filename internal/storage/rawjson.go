package storage

import (
	"context"

	"repro/internal/expr"
	"repro/internal/jsontape"
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
	if err := validateAll(lines, workers); err != nil {
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
				row[ai] = valueAccess(doc, a.Path, a.Type)
			}
			emit(w, row)
		}
	})
}

// validateAll checks every line with the tape parser (no tree is
// built), falling back per document past the tape limits. Errors
// report the lowest failing index, like parseAll.
func validateAll(lines [][]byte, workers int) error {
	pe := newParseErrs()
	morselRange(len(lines), workers, func(w, lo, hi int) {
		if pe.failedBefore(lo) {
			return
		}
		s := ingestScratchPool.Get().(*ingestScratch)
		defer ingestScratchPool.Put(s)
		var tapeDocs, treeDocs, tapeBytes int64
		defer func() {
			obs.IngestDocsTape.Add(tapeDocs)
			obs.IngestDocsTreeFallback.Add(treeDocs)
			obs.IngestTapeBytes.Add(tapeBytes)
		}()
		for i := lo; i < hi; i++ {
			err := jsontape.Parse(lines[i], &s.doc)
			if err == nil {
				tapeDocs++
				tapeBytes += int64(8 * len(s.doc.Tape))
				continue
			}
			if jsontape.IsLimit(err) {
				treeDocs++
				if _, terr := parseDoc(lines[i]); terr != nil {
					pe.record(i, terr)
					return
				}
				continue
			}
			pe.record(i, err)
			return
		}
	})
	return pe.get()
}
