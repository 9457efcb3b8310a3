package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vec"
)

// tracedStore wraps a blockstore.Store for the traced pass: every
// request becomes a span and is counted with its exact wait, so
// requests, bytes and wait per query are measured at the boundary
// where the engine leaves the process. It delegates Label, so buffer-
// pool keys are the same with the wrapper on and off.
type tracedStore struct {
	inner blockstore.Store
	tr    *tracer
	ref   *opRef

	reads, readBytes, readNs atomic.Int64
	sizes, sizeNs            atomic.Int64
	puts, putBytes, putNs    atomic.Int64
}

var _ blockstore.Store = (*tracedStore)(nil)

func (s *tracedStore) Label() string { return s.inner.Label() }

func (s *tracedStore) ReadRange(name string, off, n int64) ([]byte, error) {
	id := s.tr.begin("blockstore.read", s.ref.op.Load(), s.ref.parent.Load())
	t0 := time.Now()
	b, err := s.inner.ReadRange(name, off, n)
	s.readNs.Add(int64(time.Since(t0)))
	s.tr.end(id)
	s.reads.Add(1)
	if err == nil {
		s.readBytes.Add(n)
	}
	return b, err
}

func (s *tracedStore) Size(name string) (int64, error) {
	id := s.tr.begin("blockstore.size", s.ref.op.Load(), s.ref.parent.Load())
	t0 := time.Now()
	n, err := s.inner.Size(name)
	s.sizeNs.Add(int64(time.Since(t0)))
	s.tr.end(id)
	s.sizes.Add(1)
	return n, err
}

func (s *tracedStore) Put(name string, data []byte) error {
	id := s.tr.begin("blockstore.put", s.ref.op.Load(), s.ref.parent.Load())
	t0 := time.Now()
	err := s.inner.Put(name, data)
	s.putNs.Add(int64(time.Since(t0)))
	s.tr.end(id)
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	return err
}

func (s *tracedStore) Delete(name string) error { return s.inner.Delete(name) }

func (s *tracedStore) List() ([]string, error) { return s.inner.List() }

// storeCounts is a point-in-time copy of a tracedStore's counters.
type storeCounts struct {
	reads, readBytes, readNs int64
	sizes, sizeNs            int64
	puts, putBytes, putNs    int64
}

func (s *tracedStore) counts() storeCounts {
	return storeCounts{
		reads: s.reads.Load(), readBytes: s.readBytes.Load(), readNs: s.readNs.Load(),
		sizes: s.sizes.Load(), sizeNs: s.sizeNs.Load(),
		puts: s.puts.Load(), putBytes: s.putBytes.Load(), putNs: s.putNs.Load(),
	}
}

// plus returns c + k·b, field by field.
func (c storeCounts) plus(k int64, b storeCounts) storeCounts {
	return storeCounts{
		reads: c.reads + k*b.reads, readBytes: c.readBytes + k*b.readBytes, readNs: c.readNs + k*b.readNs,
		sizes: c.sizes + k*b.sizes, sizeNs: c.sizeNs + k*b.sizeNs,
		puts: c.puts + k*b.puts, putBytes: c.putBytes + k*b.putBytes, putNs: c.putNs + k*b.putNs,
	}
}

func (c storeCounts) add(b storeCounts) storeCounts { return c.plus(1, b) }
func (c storeCounts) sub(b storeCounts) storeCounts { return c.plus(-1, b) }

// scanRelation is what the engine asks of a tile-backed relation: the
// Relation interface plus the stats-aware row scan and the batch scan
// it type-asserts for.
type scanRelation interface {
	storage.Relation
	storage.StatsScanner
	storage.BatchScanner
}

// tracedRel wraps a relation handed to the workload queries'
// q.Run(rel, workers): each scan is a storage.scan span, and each
// batch delivered to the engine's emit callback is an engine.pipeline
// child span, so scan self time (block fetch, decode, skipping) and
// the operators above the scan are timed apart. Results are identical
// with the wrapper on and off.
type tracedRel struct {
	inner scanRelation
	tr    *tracer
	ref   *opRef
	n     *relCounts
}

// relCounts totals what tracedRel saw: wall time inside scans, the
// part of it spent in the emit callback, and rows delivered. Several
// wrappers (one per table open) may share one.
type relCounts struct {
	scanNs, emitNs, rows atomic.Int64
}

var _ scanRelation = (*tracedRel)(nil)

func (r *tracedRel) Name() string             { return r.inner.Name() }
func (r *tracedRel) NumRows() int             { return r.inner.NumRows() }
func (r *tracedRel) SizeBytes() int           { return r.inner.SizeBytes() }
func (r *tracedRel) Stats() *stats.TableStats { return r.inner.Stats() }

func (r *tracedRel) Scan(accesses []storage.Access, workers int, emit storage.EmitFunc) {
	r.ScanWithStats(context.Background(), accesses, workers, emit, nil)
}

// ScanWithStats spans the row-at-a-time scan. Tile-backed relations
// are always scanned in batches, so the per-row callback is not timed
// apart here.
func (r *tracedRel) ScanWithStats(ctx context.Context, accesses []storage.Access, workers int, emit storage.EmitFunc, st *obs.ScanStats) {
	id := r.tr.begin("storage.scan", r.ref.op.Load(), r.ref.parent.Load())
	t0 := time.Now()
	r.inner.ScanWithStats(ctx, accesses, workers, emit, st)
	r.n.scanNs.Add(int64(time.Since(t0)))
	r.tr.end(id)
}

func (r *tracedRel) ScanBatches(ctx context.Context, accesses []storage.Access, workers int, emit storage.BatchEmitFunc, st *obs.ScanStats) {
	op := r.ref.op.Load()
	id := r.tr.begin("storage.scan", op, r.ref.parent.Load())
	// Store requests issued while the scan runs are its children, so
	// their wait is taken out of the scan's self time.
	prev := r.ref.parent.Swap(id)
	t0 := time.Now()
	r.inner.ScanBatches(ctx, accesses, workers, func(w int, b *vec.Batch) {
		cid := r.tr.begin("engine.pipeline", op, id)
		e0 := time.Now()
		emit(w, b)
		r.n.emitNs.Add(int64(time.Since(e0)))
		r.tr.end(cid)
		r.n.rows.Add(int64(b.Len))
	}, st)
	r.n.scanNs.Add(int64(time.Since(t0)))
	r.ref.parent.Store(prev)
	r.tr.end(id)
}
