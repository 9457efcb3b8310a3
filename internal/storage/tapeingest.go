package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/obs"
	"repro/internal/tile"
)

// On-demand ingest (DESIGN.md §6.8): every loader parses documents
// into structural tapes and feeds them straight to its extraction or
// encoding pass. A document the tape cannot represent (a
// *jsontape.LimitError: ≥ 4 GiB of text, or a string, number or
// container span ≥ 2^28) is an ingest error, reported like a syntax
// error: the load fails naming the lowest failing document.

// ingestScratch pools one worker's tape document and JSONB encoder so
// repeated loads reuse the tape and encoder buffers (like
// scanScratchPool on the read side).
type ingestScratch struct {
	doc jsontape.Doc
	enc jsonb.Encoder
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// tapeBatch pools a partition's worth of tape documents: a reused
// batch keeps its tape buffers, so partition after partition parses
// without reallocating them.
type tapeBatch struct {
	docs []jsontape.Doc
	refs []*jsontape.Doc
}

var tapeBatchPool = sync.Pool{New: func() any { return new(tapeBatch) }}

// doc returns the batch's i-th document, growing the batch by one when
// i is its length. Growth may move the documents, so the pointer is
// only good until the next call; ptrs hands out lasting ones.
func (b *tapeBatch) doc(i int) *jsontape.Doc {
	if i == len(b.docs) {
		b.docs = append(b.docs, jsontape.Doc{})
	}
	return &b.docs[i]
}

// ptrs returns pointers to the first n documents. The slice is rebuilt
// each call (reordering permutes it) but the docs — and their tape
// buffers — persist.
func (b *tapeBatch) ptrs(n int) []*jsontape.Doc {
	b.refs = b.refs[:0]
	for i := 0; i < n; i++ {
		b.refs = append(b.refs, &b.docs[i])
	}
	return b.refs
}

// parseErrs collects parse failures from parallel workers and always
// reports the lowest failing document index, so the error a caller
// sees does not depend on worker count or morsel scheduling. The
// wrapped error is a *jsontext.SyntaxError, which carries the byte
// offset within the document, or a *jsontape.LimitError naming the
// limit.
type parseErrs struct {
	min atomic.Int64 // lowest failing index seen so far
	mu  sync.Mutex
	idx int
	err error
}

func newParseErrs() *parseErrs {
	p := &parseErrs{}
	p.min.Store(math.MaxInt64)
	return p
}

func (p *parseErrs) record(i int, err error) {
	p.mu.Lock()
	if p.err == nil || i < p.idx {
		p.idx, p.err = i, err
	}
	p.mu.Unlock()
	for {
		cur := p.min.Load()
		if int64(i) >= cur || p.min.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// failedBefore reports whether some document before index lo already
// failed — work at lo and beyond cannot change the reported error, so
// morsels may skip it.
func (p *parseErrs) failedBefore(lo int) bool {
	return p.min.Load() < int64(lo)
}

func (p *parseErrs) get() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		return nil
	}
	return fmt.Errorf("document %d: %w", p.idx, p.err)
}

// parseAllTapes parses every line into a resident tape in parallel
// and returns the lowest-index parse error, if any.
func parseAllTapes(lines [][]byte, workers int) ([]*jsontape.Doc, error) {
	tapes := make([]*jsontape.Doc, len(lines))
	pe := newParseErrs()
	morselRange(len(lines), workers, func(w, lo, hi int) {
		if pe.failedBefore(lo) {
			return
		}
		var tapeBytes int64
		defer func() { obs.IngestTapeBytes.Add(tapeBytes) }()
		for i := lo; i < hi; i++ {
			d := new(jsontape.Doc)
			if err := jsontape.Parse(lines[i], d); err != nil {
				pe.record(i, err)
				return
			}
			tapeBytes += int64(8 * len(d.Tape))
			tapes[i] = d
		}
	})
	if err := pe.get(); err != nil {
		return nil, err
	}
	return tapes, nil
}

// parseEach parses every line into a worker's pooled tape,
// morsel-parallel, and hands it to fn (when non-nil) before the
// worker's next line reuses the tape and encoder. It returns the
// lowest-index parse error.
func parseEach(lines [][]byte, workers int, fn func(i int, s *ingestScratch)) error {
	pe := newParseErrs()
	morselRange(len(lines), workers, func(w, lo, hi int) {
		if pe.failedBefore(lo) {
			return
		}
		s := ingestScratchPool.Get().(*ingestScratch)
		defer ingestScratchPool.Put(s)
		var tapeDocs, tapeBytes int64
		defer func() {
			obs.IngestDocsTape.Add(tapeDocs)
			obs.IngestTapeBytes.Add(tapeBytes)
		}()
		for i := lo; i < hi; i++ {
			if err := jsontape.Parse(lines[i], &s.doc); err != nil {
				pe.record(i, err)
				return
			}
			tapeDocs++
			tapeBytes += int64(8 * len(s.doc.Tape))
			if fn != nil {
				fn(i, s)
			}
		}
	})
	return pe.get()
}

// ParsedBatch holds documents parsed into structural tapes ahead of
// tile building, each parsed exactly once: Table.Insert adds documents
// as they arrive, so Flush builds from their tapes (BuildTilesFromBatch)
// without parsing again, and BuildTilesFromLines parses each partition
// into one before building it. The zero value is an empty batch.
type ParsedBatch struct {
	lines [][]byte
	tb    *tapeBatch // from tapeBatchPool once the first document arrives
}

// Len returns the number of documents in the batch.
func (b *ParsedBatch) Len() int { return len(b.lines) }

// Add parses line into the batch's next tape, timing the parse into m
// (nil-safe). A malformed document returns its syntax error, and one
// beyond the tape limits its *jsontape.LimitError; neither is added.
// The batch keeps line, which must not change until the batch is
// built.
func (b *ParsedBatch) Add(line []byte, m *tile.Metrics) error {
	start := time.Now()
	if b.tb == nil {
		b.tb = tapeBatchPool.Get().(*tapeBatch)
	}
	d := b.tb.doc(len(b.lines))
	err := jsontape.Parse(line, d)
	if m != nil {
		m.ParseNanos.Add(time.Since(start).Nanoseconds())
	}
	if err != nil {
		return err
	}
	obs.IngestTapeBytes.Add(int64(8 * len(d.Tape)))
	b.lines = append(b.lines, line)
	return nil
}

// reset empties the batch and returns its tapes to the pool.
func (b *ParsedBatch) reset() {
	if b.tb != nil {
		tapeBatchPool.Put(b.tb)
	}
	*b = ParsedBatch{}
}

// tapes returns the batch's tape documents in insertion order. The
// slice is the batch's own: partitions reorder their ranges of it.
func (b *ParsedBatch) tapes() []*jsontape.Doc {
	if b.tb == nil {
		return nil
	}
	return b.tb.ptrs(b.Len())
}

// BuildTilesFromBatch builds the batch's documents into a Tiles
// relation exactly as BuildTilesFromLines builds the same lines, and
// empties the batch.
func BuildTilesFromBatch(name string, b *ParsedBatch, cfg LoaderConfig, workers int, metrics *tile.Metrics) Relation {
	defer b.reset()
	tapes := b.tapes()
	r := buildPartitions(name, b.Len(), cfg, workers, metrics, func(pb *partBuilder, lo, hi int) []*tile.Tile {
		return pb.tapes(tapes[lo:hi])
	})
	obs.DocsLoaded.Add(int64(b.Len()))
	return r
}

// BuildTilesFromLines parses and ingests raw JSON lines into a Tiles
// relation, tape-driven and morsel-parallel with partition
// granularity: each worker parses a partition's lines into a
// ParsedBatch, reorders the tapes (§3.2), and builds its tiles directly
// from them — documents are never materialized as trees. A malformed
// or over-limit document fails the load; the error names the lowest
// failing document.
func BuildTilesFromLines(name string, lines [][]byte, cfg LoaderConfig, workers int, metrics *tile.Metrics) (Relation, error) {
	pe := newParseErrs()
	r := buildPartitions(name, len(lines), cfg, workers, metrics, func(pb *partBuilder, lo, hi int) []*tile.Tile {
		if pe.failedBefore(lo) {
			return nil
		}
		var b ParsedBatch
		defer b.reset()
		for i, line := range lines[lo:hi] {
			if err := b.Add(line, pb.metrics); err != nil {
				pe.record(lo+i, err)
				return nil
			}
		}
		return pb.tapes(b.tapes())
	})
	if err := pe.get(); err != nil {
		return nil, err
	}
	obs.DocsLoaded.Add(int64(len(lines)))
	return r, nil
}
