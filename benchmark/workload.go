package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	jsontiles "repro"
	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/storage"
)

// harness carries what the phases of one workload run share: the
// fixed sizes, the corpus, and the count of attempted and failed
// operations. An operation fails on an error, a non-200 response, a
// sticky scan error, or an answer that differs from its reference.
type harness struct {
	nproc  int
	seed   int64
	corpus *corpus
	yard   *yardstick // nil in unit tests: times are then not scaled

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string

	nextOp atomic.Int64
}

// check counts one attempted operation and, when ok is false, one
// failure with its reason (the first few reasons are kept for the
// report).
func (h *harness) check(ok bool, format string, args ...any) bool {
	h.attempted.Add(1)
	if !ok {
		h.failed.Add(1)
		h.mu.Lock()
		if len(h.failures) < 20 {
			h.failures = append(h.failures, fmt.Sprintf(format, args...))
		}
		h.mu.Unlock()
	}
	return ok
}

// pass is one execution of a workload's measured part — ingest, query
// phase, served check — at one share of the operation count, with the
// tracer on or off.
type pass struct {
	h  *harness
	sz sizes
	tr *tracer // nil on untraced passes

	// inner holds the queried table's objects; ingest and the warm phases
	// reach it through a FakeS3 without delay, the cold phase through
	// one with the workload's latency and throughput. ref is only set
	// on traced passes; while concurrent is set, operations leave it
	// alone, because the engine does not say which of several requests
	// in flight a store read serves.
	inner      blockstore.Store
	ref        *opRef
	concurrent bool
	appends    int // batches appended by the served-mixed phase

	ingest ingestStats
	query  queryStats
	served servedStats

	// Engine counter deltas and traced-store counts: over the ingest
	// passes and compactions, over one Compact(), and over the timed
	// parts of the query phase.
	obsIngest, obsQuery                   counterSum
	ingestStore, compactStore, queryStore storeCounts
	uncompacted                           blockstore.Store // the first pass's segments

	// What the relation wrapper saw of the library queries that ran
	// under spans (traced passes only).
	rel        relCounts
	libQueries int
	libRows    int64
	probeNs    int64 // wall of the library probe's operations
}

// storeView is one FakeS3 view of the pass's objects; ts is its
// tracing wrapper on traced passes.
type storeView struct {
	store blockstore.Store
	fake  *blockstore.FakeS3
	ts    *tracedStore
}

// counts returns the traced store's counters (zero when untraced).
func (v storeView) counts() storeCounts {
	if v.ts == nil {
		return storeCounts{}
	}
	return v.ts.counts()
}

type ingestStats struct {
	Docs       int
	InputBytes int64
	Flushes    int
	// BatchMS is, per batch of the corpus, the fastest Insert…Flush
	// over the passes, at the reference machine's speed (hostref.go):
	// interference on a shared machine only ever adds time, so the
	// fastest repetition is the steadiest estimate of what the batch
	// costs. RefBatchMS keeps every repetition at that speed, AllBatchMS
	// as the clock read it.
	BatchMS     []float64
	RefBatchMS  []float64
	AllBatchMS  []float64
	CompactMBps []float64 // per Compact(): segment MB rewritten ÷ seconds
	// CompactBytes is what one Compact() of the loaded table rewrites.
	CompactBytes int64
	StoredBytes  int64 // live segment bytes after compaction
	Segments     int   // live segments before compaction
	AllocBytes   uint64
	OpNs         int64 // Σ wall of batches and compactions
	Ops          int
	Load         jsontiles.LoadStats
}

// block is one unit of equal work inside the query phase: a round
// over every class in the library modes, one epoch — every client's
// operations against a fresh copy of the loaded table — in the served
// mode.
type block struct {
	WallNs   int64     // first operation's start to last operation's end, summed over clients
	MS       []float64 // latency of every query in the block
	Classes  []string  // and its class, index-aligned with MS
	AppendMS []float64 // served-mixed mode: every Insert…Flush of the block
	// YardMS is the yardstick's reading beside the block. The times
	// above are as the clock read them; statistics divide them by the
	// block's host factor.
	YardMS float64
}

type queryStats struct {
	// Blocks holds every timed query, grouped by block.
	Blocks  []block
	Clients int // closed-loop clients issuing the blocks
	// HostShare is the share of the phase's query time that scales
	// with the yardstick.
	HostShare  float64
	WallNs     int64 // wall time of the closed loop
	OpNs       int64 // Σ latencies (query and append ops)
	Queries    int
	AllocBytes uint64
	StoreReads int64 // store range reads during the timed rounds

	// Served-mixed mode only.
	Appends     int
	WireBytes   int64
	WireRows    int64
	OverheadMS  []float64 // HTTP latency − the server's own query wall time
	Rejected429 int64
	Compactions int

	// Every table open of the phase: wall time and store requests.
	OpenMS       []float64
	OpenRequests []float64
	PoolResident int64
}

// keptShare is the share of a phase's blocks that the latency and
// throughput statistics are computed over.
const keptShare = 0.5

// kept returns the fastest keptShare of the blocks. The machine this
// runs on is shared: for a second or two at a time everything runs up
// to a third slower, in some runs for a few rounds and in others for
// half of them. Blocks do equal work, so ranking them by wall time and
// dropping the slower ones removes that interference, and what is left
// measures the program. The cost is stated in README.md: a change
// that makes only some rounds slow (a periodic stall) is not seen by
// these statistics.
func (q *queryStats) kept() []block {
	order := make([]int, len(q.Blocks))
	for i := range order {
		order[i] = i
	}
	wall := func(i int) float64 { return float64(q.Blocks[i].WallNs) / hostFactor(q.Blocks[i].YardMS, q.HostShare) }
	sort.SliceStable(order, func(a, b int) bool { return wall(order[a]) < wall(order[b]) })
	n := int(math.Ceil(keptShare * float64(len(order))))
	out := make([]block, 0, n)
	for _, i := range order[:n] {
		out = append(out, q.Blocks[i])
	}
	return out
}

// latencies flattens blocks into all query latencies, query latencies
// by class, and append latencies, each divided by its block's host
// factor for the given share of queries (appends scale as ingest does).
// A share of 0 gives the times as the clock read them.
func latencies(blocks []block, share float64) (all []float64, byClass map[string][]float64, appends []float64) {
	byClass = map[string][]float64{}
	for _, b := range blocks {
		f := hostFactor(b.YardMS, share)
		for i, c := range b.Classes {
			all = append(all, b.MS[i]/f)
			byClass[c] = append(byClass[c], b.MS[i]/f)
		}
		fa := 1.0
		if share > 0 {
			fa = hostFactor(b.YardMS, hostShareIngest)
		}
		for _, a := range b.AppendMS {
			appends = append(appends, a/fa)
		}
	}
	return all, byClass, appends
}

type servedStats struct {
	Queries    int
	Bytes      int64
	Rows       int64
	OverheadMS []float64
}

func (p *pass) opts() jsontiles.Options {
	o := jsontiles.DefaultOptions()
	o.Workers = p.h.nproc
	o.CompactFanIn = -1 // compaction only where the workload calls Compact()
	o.CacheBytes = p.sz.PoolBytes
	return o
}

// view returns a FakeS3 view of the pass's objects with the given
// delay model, wrapped for tracing on traced passes.
func (p *pass) view(latency time.Duration, mbps int64) storeView {
	return p.viewOf(p.inner, latency, mbps)
}

func (p *pass) viewOf(inner blockstore.Store, latency time.Duration, mbps int64) storeView {
	fake := blockstore.NewFakeS3(inner, blockstore.FakeS3Config{Latency: latency, ThroughputBps: mbps << 20})
	if p.tr == nil {
		return storeView{store: fake, fake: fake}
	}
	ts := &tracedStore{inner: fake, tr: p.tr, ref: p.ref}
	return storeView{store: ts, fake: fake, ts: ts}
}

// beginOp opens the root span of a new operation and points the
// wrappers at it.
func (p *pass) beginOp(name string) int32 {
	if p.tr == nil {
		return -1
	}
	op := p.h.nextOp.Add(1)
	id := p.tr.begin(name, op, -1)
	if !p.concurrent {
		p.ref.set(op, id)
	}
	return id
}

func (p *pass) endOp(id int32) {
	if p.tr == nil {
		return
	}
	p.tr.end(id)
	if !p.concurrent {
		p.ref.set(0, -1)
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// counterSum adds up deltas of the engine's own instruments
// (obs.Default) over the pieces of a phase that other work
// interrupts.
type counterSum struct {
	counters  map[string]int64
	histSum   map[string]float64
	histCount map[string]int64
}

// during runs fn and adds what the engine counted meanwhile.
func (c *counterSum) during(fn func() error) error {
	base := obs.Default.Snapshot()
	err := fn()
	d := obs.Default.Snapshot().Diff(base)
	if c.counters == nil {
		c.counters, c.histSum, c.histCount = map[string]int64{}, map[string]float64{}, map[string]int64{}
	}
	for k, v := range d.Counters {
		c.counters[k] += v
	}
	for k, h := range d.Histograms {
		c.histSum[k] += h.Sum
		c.histCount[k] += h.Count
	}
	return err
}

func (c *counterSum) Get(name string) int64 { return c.counters[name] }

// queryPhase is a workload's query phase, run in parts so that the
// rest of the measured work can go between them.
type queryPhase interface {
	// part runs the g-th of n equal parts of the timed operations.
	part(g, n int) error
	finish() error
}

// run executes the pass. The table is built first: one ingest pass,
// one compaction. The query phase then runs in sz.Parts parts with
// the remaining ingest passes and compactions between them. The
// machine's slow spells last seconds; spread over the whole pass, one
// spell hits a minority of each phase's repetitions, and the
// fastest-half and fastest-pass statistics drop them. Run back to
// back, a whole phase can fall inside one spell.
func (p *pass) run() error {
	if p.tr != nil {
		p.ref = newOpRef()
	}
	var rest []func() error
	for n := 0; n < p.sz.IngestPasses; n++ {
		rest = append(rest, func() error { return p.ingestPass(n) })
		if n == 0 {
			rest = append(rest, func() error { return p.compactRep() })
		}
	}
	for n := 1; n < p.sz.CompactReps; n++ {
		rest = append(rest, func() error { return p.compactRep() })
	}
	step := func(fn func() error) error {
		runtime.GC() // every step starts without the previous one's garbage
		return p.obsIngest.during(fn)
	}
	for _, fn := range rest[:2] {
		if err := step(fn); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}
	rest = rest[2:]

	var phase queryPhase
	var err error
	if p.sz.Mode == modeServe {
		phase, err = p.startServed()
	} else {
		phase, err = p.startLibrary()
	}
	if err != nil {
		return fmt.Errorf("query phase: %w", err)
	}
	parts := p.sz.Parts
	for g := 0; g < parts; g++ {
		if err := phase.part(g, parts); err != nil {
			phase.finish()
			return fmt.Errorf("query phase: %w", err)
		}
		// The g-th gap gets its share of the remaining steps.
		lo, hi := len(rest), len(rest)
		if g < parts-1 {
			lo, hi = g*len(rest)/(parts-1), (g+1)*len(rest)/(parts-1)
		}
		for _, fn := range rest[lo:hi] {
			if err := step(fn); err != nil {
				phase.finish()
				return fmt.Errorf("ingest: %w", err)
			}
		}
	}
	if err := phase.finish(); err != nil {
		return fmt.Errorf("query phase: %w", err)
	}
	if p.sz.Mode == modeServe && p.tr != nil {
		if err := p.runLibraryProbe(); err != nil {
			return fmt.Errorf("library probe: %w", err)
		}
	}
	if err := p.runServedCheck(); err != nil {
		return fmt.Errorf("served check: %w", err)
	}
	return nil
}

// ingestPass loads the corpus into a fresh store — OpenStore, then
// Insert…Flush in batches of BatchDocs. The first pass's segments are
// kept: they are what every compaction starts from.
func (p *pass) ingestPass(n int) error {
	c := p.h.corpus
	st := &p.ingest
	st.Docs, st.InputBytes = len(c.lines), c.bytes
	alloc0 := totalAlloc()
	store := blockstore.NewMem()
	v := p.viewOf(store, 0, 0)
	tbl, err := jsontiles.OpenStore(tableName, v.store, p.opts())
	if err != nil {
		return err
	}
	for b, lo := 0, 0; lo < len(c.lines); b, lo = b+1, lo+p.sz.BatchDocs {
		hi := min(lo+p.sz.BatchDocs, len(c.lines))
		host := hostFactor(p.h.yard.read(), hostShareIngest)
		d, err := p.appendBatch(tbl, c.lines[lo:hi])
		p.h.check(err == nil, "ingest batch at doc %d: %v", lo, err)
		if err != nil {
			return err
		}
		st.OpNs += int64(d)
		st.Ops++
		st.Flushes++
		st.AllBatchMS = append(st.AllBatchMS, ms(d))
		st.RefBatchMS = append(st.RefBatchMS, ms(d)/host)
		if n == 0 {
			st.BatchMS = append(st.BatchMS, ms(d)/host)
		} else {
			st.BatchMS[b] = min(st.BatchMS[b], ms(d)/host)
		}
	}
	st.Segments, st.Load = tbl.NumSegments(), tbl.LoadStats()
	p.h.check(tbl.NumRows() == len(c.lines), "ingest: table has %d rows, corpus %d", tbl.NumRows(), len(c.lines))
	if err := tbl.Close(); err != nil {
		return err
	}
	st.AllocBytes += totalAlloc() - alloc0
	p.ingestStore = p.ingestStore.add(v.counts())
	if n == 0 {
		p.uncompacted = store
	}
	return nil
}

// compactRep times one Compact() of a fresh copy of the first pass's
// segments. The first repetition's result is the table the query
// phase reads.
func (p *pass) compactRep() error {
	st := &p.ingest
	store, err := copyStore(p.uncompacted)
	if err != nil {
		return err
	}
	v := p.viewOf(store, 0, 0)
	tbl, err := jsontiles.OpenStore(tableName, v.store, p.opts())
	if err != nil {
		return err
	}
	d, rewritten, err := p.compact(tbl)
	p.h.check(err == nil, "compact: %v", err)
	if err != nil {
		return err
	}
	st.CompactMBps = append(st.CompactMBps, mbPerS(rewritten, int64(d)))
	st.CompactBytes = rewritten
	st.OpNs += int64(d)
	st.Ops++
	st.StoredBytes = tbl.SizeBytes()
	p.h.check(tbl.NumRows() == st.Docs, "compact: table has %d rows, corpus %d", tbl.NumRows(), st.Docs)
	p.h.check(tbl.ScanErr() == nil, "ingest: ScanErr: %v", tbl.ScanErr())
	if err := tbl.Close(); err != nil {
		return err
	}
	p.compactStore = v.counts()
	if p.inner == nil {
		p.inner = store
	}
	return nil
}

// copyStore returns a new in-memory store holding the same objects.
func copyStore(src blockstore.Store) (blockstore.Store, error) {
	dst := blockstore.NewMem()
	names, err := src.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		b, err := blockstore.ReadAll(src, name)
		if err != nil {
			return nil, err
		}
		if err := dst.Put(name, b); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendBatch is one timed Insert…Flush of docs.
func (p *pass) appendBatch(tbl *jsontiles.Table, docs [][]byte) (time.Duration, error) {
	id := p.beginOp("ingest.flush")
	defer p.endOp(id)
	t0 := time.Now()
	for _, doc := range docs {
		if err := tbl.Insert(doc); err != nil {
			return 0, err
		}
	}
	if err := tbl.Flush(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// compact is one timed Compact(); it also returns the segment bytes
// the engine reports having rewritten.
func (p *pass) compact(tbl *jsontiles.Table) (time.Duration, int64, error) {
	id := p.beginOp("compact.run")
	defer p.endOp(id)
	before := obs.CompactionBytesRewritten.Load()
	t0 := time.Now()
	_, err := tbl.Compact()
	return time.Since(t0), obs.CompactionBytesRewritten.Load() - before, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mbPerS(bytes, ns int64) float64 {
	return ratio(float64(bytes)/1e6, float64(ns)/1e9)
}

// openTable opens the table for library queries with a fresh pool of
// the pass's size. It returns the table, the relation to hand to the
// queries (wrapped on traced passes), the open's wall time and its
// store requests.
func (p *pass) openTable(v storeView) (*storage.DirTable, storage.Relation, time.Duration, int64, error) {
	var id, parent int32 = -1, -1
	if p.tr != nil {
		// Store requests of the open are its children.
		parent = p.ref.parent.Load()
		id = p.tr.begin("table.open", p.ref.op.Load(), parent)
		p.ref.parent.Store(id)
	}
	reqs := v.fake.Requests()
	t0 := time.Now()
	dt, err := storage.OpenDirStore(tableName, v.store, bufpool.New(p.sz.PoolBytes), storage.DefaultLoaderConfig(), 0, false)
	d := time.Since(t0)
	if p.tr != nil {
		p.ref.parent.Store(parent)
		p.tr.end(id)
	}
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var rel storage.Relation = dt
	if p.tr != nil {
		rel = &tracedRel{inner: dt, tr: p.tr, ref: p.ref, n: &p.rel}
	}
	return dt, rel, d, v.fake.Requests() - reqs, nil
}

// libraryPhase is the in-process query phase. Warm mode opens the
// table once with a pool larger than the table and runs one untimed
// round first; cold mode opens it for every operation with an empty
// pool behind the delayed store. Every answer is compared with the
// class's first answer, which the oracle later checks against raw
// JSON.
type libraryPhase struct {
	p       *pass
	classes []queryClass
	cold    bool
	v       storeView
	dt      *storage.DirTable // warm mode: the one open table
	rel     storage.Relation
	want    map[string]*engine.Result
	rng     *rand.Rand
	order   []int
}

func (p *pass) startLibrary() (queryPhase, error) {
	ph := &libraryPhase{
		p: p, classes: libraryClasses(p.sz.Corpus), cold: p.sz.Mode == modeCold,
		v:    p.view(p.sz.StoreLatency, p.sz.StoreMBps),
		want: map[string]*engine.Result{}, rng: rand.New(rand.NewSource(p.h.seed)),
	}
	p.query.Clients, p.query.HostShare = 1, hostShareQuery
	if ph.cold {
		p.query.HostShare = hostShareCold
	}
	if !ph.cold {
		var err error
		if ph.dt, ph.rel, _, _, err = p.openTable(ph.v); err != nil {
			return nil, err
		}
	}
	// The untimed first round fills the warm pool and fixes each
	// class's reference answer.
	p.tr.pause(true)
	defer p.tr.pause(false)
	for i, c := range ph.classes {
		res, _, err := ph.runOp(c, false)
		if err != nil {
			ph.finish()
			return nil, fmt.Errorf("class %s: %w", c.name, err)
		}
		ph.want[c.name] = res
		ph.order = append(ph.order, i)
	}
	p.query.OpenMS, p.query.OpenRequests, p.query.PoolResident = nil, nil, 0
	return ph, nil
}

// runOp is one operation: (open,) run, (close). Timed operations run
// under a query.run span.
func (ph *libraryPhase) runOp(c queryClass, timed bool) (*engine.Result, time.Duration, error) {
	p, q := ph.p, &ph.p.query
	t0 := time.Now()
	if timed {
		id := p.beginOp("query.run")
		defer p.endOp(id)
	}
	dt, rel := ph.dt, ph.rel
	if ph.cold {
		var err error
		var od time.Duration
		var reqs int64
		if dt, rel, od, reqs, err = p.openTable(ph.v); err != nil {
			return nil, 0, err
		}
		q.OpenMS = append(q.OpenMS, ms(od))
		q.OpenRequests = append(q.OpenRequests, float64(reqs))
	}
	res := c.run(rel, p.h.nproc)
	scanErr := dt.Err()
	if ph.cold {
		q.PoolResident = max(q.PoolResident, dt.Pool().Stats().Resident)
		dt.Close()
	}
	return res, time.Since(t0), scanErr
}

func (ph *libraryPhase) part(g, n int) error {
	p, q := ph.p, &ph.p.query
	runtime.GC()
	store0, rows0 := ph.v.counts(), p.rel.rows.Load()
	reads0 := ph.v.fake.RangeReadCount()
	alloc0 := totalAlloc()
	start := time.Now()
	err := p.obsQuery.during(func() error {
		for r := g * p.sz.QueryRounds / n; r < (g+1)*p.sz.QueryRounds/n; r++ {
			if ph.cold {
				ph.rng.Shuffle(len(ph.order), func(i, j int) { ph.order[i], ph.order[j] = ph.order[j], ph.order[i] })
			}
			blk := block{YardMS: p.h.yard.read()}
			roundStart := time.Now()
			var gcNs int64
			for _, ci := range ph.order {
				c := ph.classes[ci]
				if ph.cold {
					// A cold operation stands for a fresh process (jtquery
					// against remote storage): it starts without the
					// previous operation's garbage. Collected off the clock.
					gc0 := time.Now()
					runtime.GC()
					gcNs += int64(time.Since(gc0))
				}
				res, d, err := ph.runOp(c, true)
				blk.MS, blk.Classes = append(blk.MS, ms(d)), append(blk.Classes, c.name)
				q.OpNs += int64(d)
				q.Queries++
				if p.h.check(err == nil, "class %s: %v", c.name, err) {
					diff := sameResult(res, ph.want[c.name])
					p.h.check(diff == nil, "class %s round %d: answer changed: %v", c.name, r, diff)
				}
			}
			blk.WallNs = int64(time.Since(roundStart)) - gcNs
			q.Blocks = append(q.Blocks, blk)
		}
		return nil
	})
	q.WallNs += int64(time.Since(start))
	q.AllocBytes += totalAlloc() - alloc0
	q.StoreReads += ph.v.fake.RangeReadCount() - reads0
	p.queryStore = p.queryStore.add(ph.v.counts().sub(store0))
	p.libRows += p.rel.rows.Load() - rows0
	p.libQueries = q.Queries
	return err
}

func (ph *libraryPhase) finish() error {
	if ph.cold {
		return nil
	}
	q := &ph.p.query
	q.PoolResident = ph.dt.Pool().Stats().Resident
	// The pool holds the whole table: a warm round must not touch the
	// store at all.
	ph.p.h.check(q.StoreReads == 0, "warm phase issued %d store reads after warm-up", q.StoreReads)
	return ph.dt.Close()
}

// runLibraryProbe runs the corpus's library classes through the
// relation wrapper for two rounds. The served-mixed phase reaches the
// engine only through the public API, where no wrapper can be
// inserted, so on that workload this pass is what gives the scan and
// pipeline spans of the traced run.
func (p *pass) runLibraryProbe() error {
	v := p.view(0, 0)
	dt, rel, _, _, err := p.openTable(v)
	if err != nil {
		return err
	}
	defer dt.Close()
	var rows0 int64
	for r := 0; r < 3; r++ {
		p.tr.pause(r == 0) // the first round only fills the pool
		for _, c := range libraryClasses(p.sz.Corpus) {
			t0 := time.Now()
			id := p.beginOp("query.run")
			c.run(rel, p.h.nproc)
			p.endOp(id)
			if r > 0 {
				p.probeNs += int64(time.Since(t0))
				p.libQueries++
			}
		}
		if r == 0 {
			rows0 = p.rel.rows.Load()
		}
	}
	p.libRows = p.rel.rows.Load() - rows0
	p.h.check(dt.Err() == nil, "library probe: scan error: %v", dt.Err())
	return nil
}

// httpAnswer is one parsed /query response.
type httpAnswer struct {
	bytes   int
	rows    int
	wallMS  float64 // the server's own query wall time, from the trailer
	body    []byte
	latency time.Duration
}

// post sends one envelope and reads the whole response. The NDJSON
// frame (header line, rows, trailer with the row count) is checked;
// row contents are compared by the callers that have a reference.
func post(client *http.Client, url string, envelope []byte) (httpAnswer, error) {
	var a httpAnswer
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(envelope))
	if err != nil {
		return a, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.latency = time.Since(t0)
	a.bytes, a.body = len(body), body
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 || !bytes.HasPrefix(lines[0], []byte(`{"columns"`)) {
		return a, fmt.Errorf("response is not a header-rows-trailer NDJSON stream")
	}
	var trailer struct {
		Rows   int     `json:"rows"`
		WallMS float64 `json:"wall_ms"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		return a, fmt.Errorf("trailer: %w", err)
	}
	a.rows, a.wallMS = len(lines)-2, trailer.WallMS
	if trailer.Rows != a.rows {
		return a, fmt.Errorf("trailer says %d rows, stream has %d", trailer.Rows, a.rows)
	}
	return a, nil
}

// rowsMatch compares the row lines of an NDJSON body with a library
// result, cell by cell.
func rowsMatch(body []byte, want *engine.Result) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	rows := lines[1 : len(lines)-1]
	if len(rows) != len(want.Rows) {
		return fmt.Errorf("%d rows over HTTP, %d from the library", len(rows), len(want.Rows))
	}
	for i, line := range rows {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		var cells []any
		if err := dec.Decode(&cells); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if len(cells) != len(want.Rows[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(cells), len(want.Rows[i]))
		}
		for j, cell := range cells {
			if !wireMatches(cell, want.Rows[i][j]) {
				return fmt.Errorf("row %d col %d: %v over HTTP, %s from the library", i, j, cell, want.Rows[i][j])
			}
		}
	}
	return nil
}

// server is an in-process query service over one table.
type server struct {
	tbl *jsontiles.Table
	srv *service.Server
	url string
}

func (p *pass) startServer(store blockstore.Store) (*server, error) {
	tbl, err := jsontiles.OpenStore(tableName, store, p.opts())
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Addr: "127.0.0.1:0", MaxConcurrent: p.h.nproc})
	srv.Register(tableName, tbl)
	addr, err := srv.Start()
	if err != nil {
		tbl.Close()
		return nil, err
	}
	return &server{tbl: tbl, srv: srv, url: "http://" + addr + "/query"}, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.tbl.Close(); err == nil {
		err = cerr
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
}

// servedPhase is the served-mixed query phase. Every part is an epoch:
// a query service over a fresh copy of the loaded table, against which
// Actors closed-loop clients each run the same seeded sequence of
// EpochCycles append cycles — HTTP queries over the served classes,
// one seeded permutation after another, with the last operation of a
// cycle a library append of BatchDocs documents, and every
// CompactEvery-th append of the epoch followed by Compact(). Writes,
// compaction and pool invalidation therefore happen at fixed points of
// the sequence, beside the reads. The table grows within an epoch and
// queries slow down with it, so two cycles are not equal work, but
// two epochs are: the epoch is the block.
type servedPhase struct {
	p       *pass
	classes []queryClass
	base    blockstore.Store // the loaded table every epoch starts from

	// The running epoch.
	sv      *server
	appends int        // batches appended so far
	blk     block      // guarded by mu
	mu      sync.Mutex // guards blk and p.query
	// One appender at a time: Table.Insert is single-writer.
	appendMu sync.Mutex
}

func (p *pass) startServed() (queryPhase, error) {
	p.query.Clients, p.query.HostShare = p.sz.Actors, hostShareQuery
	classes := servedClasses(p.sz.Corpus)
	if (p.sz.AppendEvery-1)%len(classes) != 0 {
		return nil, fmt.Errorf("an append cycle has %d queries, not a multiple of the %d served classes", p.sz.AppendEvery-1, len(classes))
	}
	return &servedPhase{p: p, classes: classes, base: p.inner}, nil
}

// part runs the g-th epoch.
func (ph *servedPhase) part(g, n int) error {
	p, q := ph.p, &ph.p.query
	store, err := copyStore(ph.base)
	if err != nil {
		return err
	}
	v := p.viewOf(store, p.sz.StoreLatency, p.sz.StoreMBps)
	if ph.sv, err = p.startServer(v.store); err != nil {
		return err
	}
	if err := ph.warmUp(); err != nil {
		ph.sv.stop()
		return err
	}

	ph.appends, ph.blk = 0, block{}
	p.concurrent = true
	runtime.GC()
	yard0 := p.h.yard.read()
	store0 := v.counts()
	alloc0 := totalAlloc()
	start := time.Now()
	err = p.obsQuery.during(func() error {
		var wg sync.WaitGroup
		for a := 0; a < p.sz.Actors; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ph.client(a)
			}()
		}
		wg.Wait()
		return nil
	})
	p.concurrent = false
	q.WallNs += int64(time.Since(start))
	q.AllocBytes += totalAlloc() - alloc0
	p.queryStore = p.queryStore.add(v.counts().sub(store0))
	ph.blk.YardMS = (yard0 + p.h.yard.read()) / 2 // the epoch lasts seconds: the host's state before and after it
	q.Blocks = append(q.Blocks, ph.blk)
	q.Rejected429 = p.obsQuery.Get("admission_rejected")
	q.PoolResident = int64(obs.BufpoolBytes.Load())
	p.h.check(ph.sv.tbl.ScanErr() == nil, "served phase: ScanErr: %v", ph.sv.tbl.ScanErr())
	// The last epoch's table, with its appended batches, is what the
	// checks after the query phase read.
	p.inner, p.appends = store, ph.appends
	if serr := ph.sv.stop(); err == nil {
		err = serr
	}
	return err
}

// warmUp asks every class once, untimed: the answers fill the epoch's
// pool.
func (ph *servedPhase) warmUp() error {
	ph.p.tr.pause(true)
	defer ph.p.tr.pause(false)
	client := newClient()
	defer client.CloseIdleConnections()
	for _, c := range ph.classes {
		if _, err := post(client, ph.sv.url, c.envelope); err != nil {
			return fmt.Errorf("class %s: %w", c.name, err)
		}
	}
	return nil
}

// client runs client a's operations of one epoch and adds them to the
// epoch's block.
func (ph *servedPhase) client(a int) {
	p, q := ph.p, &ph.p.query
	client := newClient()
	defer client.CloseIdleConnections()
	// Every epoch replays the same sequence of classes.
	rng := rand.New(rand.NewSource(p.h.seed*31 + int64(a)))
	var perm []int
	// Clients append at different points of their cycles.
	phase := a * p.sz.AppendEvery / p.sz.Actors
	start := time.Now()
	for i := 0; i < p.sz.EpochCycles*p.sz.AppendEvery; i++ {
		if (i+phase)%p.sz.AppendEvery == p.sz.AppendEvery-1 {
			ph.appendMu.Lock()
			batch := p.h.corpus.appends[ph.appends]
			ph.appends++
			d, err := p.appendBatch(ph.sv.tbl, batch)
			p.h.check(err == nil, "append: %v", err)
			var cd time.Duration
			compacted := ph.appends%p.sz.CompactEvery == 0
			if compacted {
				var cerr error
				cd, _, cerr = p.compact(ph.sv.tbl)
				p.h.check(cerr == nil, "compact: %v", cerr)
			}
			ph.appendMu.Unlock()
			ph.mu.Lock()
			ph.blk.AppendMS = append(ph.blk.AppendMS, ms(d))
			q.OpNs += int64(d + cd)
			q.Appends++
			if compacted {
				q.Compactions++
			}
			ph.mu.Unlock()
			continue
		}
		if len(perm) == 0 {
			perm = rng.Perm(len(ph.classes))
		}
		c := ph.classes[perm[0]]
		perm = perm[1:]
		id := p.beginOp("service.request")
		ans, err := post(client, ph.sv.url, c.envelope)
		p.endOp(id)
		p.h.check(err == nil, "class %s: %v", c.name, err)
		ph.mu.Lock()
		ph.blk.MS, ph.blk.Classes = append(ph.blk.MS, ms(ans.latency)), append(ph.blk.Classes, c.name)
		q.OpNs += int64(ans.latency)
		q.Queries++
		q.WireBytes += int64(ans.bytes)
		q.WireRows += int64(ans.rows)
		q.OverheadMS = append(q.OverheadMS, ms(ans.latency)-ans.wallMS)
		ph.mu.Unlock()
	}
	// A block's wall time is client time: queries_per_s multiplies the
	// per-client rate by the number of clients.
	wall := int64(time.Since(start))
	ph.mu.Lock()
	ph.blk.WallNs += wall
	ph.mu.Unlock()
}

func (ph *servedPhase) finish() error { return nil }

// runServedCheck POSTs every served class of the corpus to a query
// service over the pass's final table, compares the rows with the
// library's answer to the same envelope, and counts the bytes on the
// wire. It is not timed; on the library workloads it is what
// wire_bytes_per_query is taken from.
func (p *pass) runServedCheck() error {
	classes := servedClasses(p.sz.Corpus)
	p.tr.pause(true) // not part of the measured operations
	defer p.tr.pause(false)
	v := p.view(0, 0)
	dt, err := storage.OpenDirStore(tableName, v.store, bufpool.New(poolLarge), storage.DefaultLoaderConfig(), 0, false)
	if err != nil {
		return err
	}
	defer dt.Close()
	sv, err := p.startServer(v.store)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	want := make([]*engine.Result, len(classes))
	for i, c := range classes {
		want[i] = c.run(dt, p.h.nproc)
	}
	for r := 0; r < p.sz.ServedRounds; r++ {
		for i, c := range classes {
			ans, err := post(client, sv.url, c.envelope)
			if p.h.check(err == nil, "served %s: %v", c.name, err) {
				diff := rowsMatch(ans.body, want[i])
				p.h.check(diff == nil, "served %s: HTTP rows differ from the library: %v", c.name, diff)
			}
			p.served.Queries++
			p.served.Bytes += int64(ans.bytes)
			p.served.Rows += int64(ans.rows)
			p.served.OverheadMS = append(p.served.OverheadMS, ms(ans.latency)-ans.wallMS)
		}
	}
	p.h.check(sv.tbl.ScanErr() == nil, "served check: ScanErr: %v", sv.tbl.ScanErr())
	p.h.check(dt.Err() == nil, "served check: library scan error: %v", dt.Err())
	return sv.stop()
}
