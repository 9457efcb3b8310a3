package storage

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/jsonvalue"
	"repro/internal/obs"
	"repro/internal/tile"
)

// On-demand ingest (DESIGN.md §6.8): every loader parses documents
// into structural tapes and feeds them straight to its extraction or
// encoding pass, materializing jsonvalue trees only for documents the
// tape cannot represent (LimitError: ≥4 GiB documents or ≥2^28-element
// spans) — the boxed fallback path, counted by ingest_docs_tree_fallback.
// The input alone selects it; tests force it by shrinking the limits
// (jsontape.SetLimitsForTesting).

// errTapeLimit signals that some document exceeded the tape encoding
// limits; whole-input loaders retry on the tree path.
var errTapeLimit = errors.New("storage: document exceeds tape limits")

// ingestScratch pools one worker's tape document and JSONB encoder so
// repeated loads reuse the tape and encoder buffers (like
// scanScratchPool on the read side).
type ingestScratch struct {
	doc jsontape.Doc
	enc jsonb.Encoder
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// tapeBatch pools a partition's worth of tape documents: grow keeps
// previously-allocated tape buffers so a worker re-parses partition
// after partition without reallocating.
type tapeBatch struct {
	docs []jsontape.Doc
	ptrs []*jsontape.Doc
}

var tapeBatchPool = sync.Pool{New: func() any { return new(tapeBatch) }}

// prep returns n tape-document pointers backed by the batch's reusable
// storage. The ptrs slice is rebuilt each call (reordering permutes
// it) but the docs — and their tape buffers — persist.
func (b *tapeBatch) prep(n int) []*jsontape.Doc {
	for len(b.docs) < n {
		b.docs = append(b.docs, jsontape.Doc{})
	}
	b.ptrs = b.ptrs[:0]
	for i := 0; i < n; i++ {
		b.ptrs = append(b.ptrs, &b.docs[i])
	}
	return b.ptrs
}

// parseErrs collects parse failures from parallel workers and always
// reports the lowest failing document index, so the error a caller
// sees does not depend on worker count or morsel scheduling. The
// wrapped *jsontext.SyntaxError carries the byte offset within the
// document.
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

// parseAllTapes parses every line into a resident tape in parallel.
// It returns errTapeLimit when any document exceeds the tape limits
// (the caller retries on the tree path) and otherwise the lowest-index
// parse error, exactly like parseAll.
func parseAllTapes(lines [][]byte, workers int) ([]*jsontape.Doc, error) {
	tapes := make([]*jsontape.Doc, len(lines))
	pe := newParseErrs()
	var limited atomic.Bool
	morselRange(len(lines), workers, func(w, lo, hi int) {
		if pe.failedBefore(lo) || limited.Load() {
			return
		}
		var tapeBytes int64
		defer func() { obs.IngestTapeBytes.Add(tapeBytes) }()
		for i := lo; i < hi; i++ {
			d := new(jsontape.Doc)
			if err := jsontape.Parse(lines[i], d); err != nil {
				if jsontape.IsLimit(err) {
					limited.Store(true)
				} else {
					pe.record(i, err)
				}
				return
			}
			tapeBytes += int64(8 * len(d.Tape))
			tapes[i] = d
		}
	})
	if err := pe.get(); err != nil {
		return nil, err
	}
	if limited.Load() {
		return nil, errTapeLimit
	}
	return tapes, nil
}

// ValidateDoc checks that line is one well-formed JSON document, using
// the tape parser with tree fallback past its limits — the insert-time
// validation of the public API.
func ValidateDoc(line []byte) error {
	s := ingestScratchPool.Get().(*ingestScratch)
	err := jsontape.Parse(line, &s.doc)
	ingestScratchPool.Put(s)
	if jsontape.IsLimit(err) {
		_, err = parseDoc(line)
	}
	return err
}

// BuildTilesFromLines parses and ingests raw JSON lines into a Tiles
// relation, tape-driven and morsel-parallel with partition
// granularity: each worker parses a partition's lines into pooled
// tapes, reorders them (§3.2), and builds its tiles directly from the
// tapes — documents are never materialized as trees. A partition
// containing an over-limit document falls back to the tree path for
// that partition only.
func BuildTilesFromLines(name string, lines [][]byte, cfg LoaderConfig, workers int, metrics *tile.Metrics) (Relation, error) {
	pe := newParseErrs()
	r := buildPartitions(name, len(lines), cfg, workers, metrics, func(pb *partBuilder, lo, hi int) []*tile.Tile {
		if pe.failedBefore(lo) {
			return nil
		}
		part := lines[lo:hi]
		batch := tapeBatchPool.Get().(*tapeBatch)
		defer tapeBatchPool.Put(batch)

		start := time.Now()
		tapes := batch.prep(len(part))
		limited := false
		failed := false
		var tapeBytes int64
		for i, line := range part {
			if err := jsontape.Parse(line, tapes[i]); err != nil {
				if jsontape.IsLimit(err) {
					limited = true
				} else {
					pe.record(lo+i, err)
					failed = true
				}
				break
			}
			tapeBytes += int64(8 * len(tapes[i].Tape))
		}
		if pb.metrics != nil {
			pb.metrics.ParseNanos.Add(time.Since(start).Nanoseconds())
		}
		obs.IngestTapeBytes.Add(tapeBytes)
		switch {
		case failed:
			return nil
		case limited:
			return buildPartitionTree(pb, part, lo, pe)
		}
		return pb.tapes(tapes)
	})
	if err := pe.get(); err != nil {
		return nil, err
	}
	obs.DocsLoaded.Add(int64(len(lines)))
	return r, nil
}

// buildPartitionTree is the per-partition tree fallback of
// BuildTilesFromLines: parse the partition's lines into trees (the
// partition holds an over-limit document) and build through the boxed
// path. The partition's global line offset keeps error indexes
// deterministic.
func buildPartitionTree(pb *partBuilder, part [][]byte, dlo int, pe *parseErrs) []*tile.Tile {
	start := time.Now()
	docs := make([]jsonvalue.Value, len(part))
	for i, line := range part {
		v, err := parseDoc(line)
		if err != nil {
			pe.record(dlo+i, err)
			return nil
		}
		docs[i] = v
	}
	if pb.metrics != nil {
		pb.metrics.ParseNanos.Add(time.Since(start).Nanoseconds())
	}
	return pb.trees(docs)
}
