package storage

import (
	"context"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/segment"
)

// fetchWindow is the one per-scan fetch scheduler of store-backed
// scans (DESIGN.md §6.9). Every store request of a scan is known from
// tile metadata once the footers are in memory, so the window issues
// each surviving tile's coalesced fetch ahead of the workers, in the
// order they will want the tiles, while the stored bytes of tiles
// fetched but not yet claimed fit the pool (or the tenant's smaller
// quota): fetched blocks stay compressed until their first decode, so
// within that budget none is evicted before use and read twice. A
// worker claims each tile before scanning it and blocks only on that
// tile's fetch; a tile the window has not reached — full window, a
// worker running ahead — is fetched by the claim itself. Either way a
// tile is fetched once.
type fetchWindow struct {
	ctx    context.Context
	src    scanSource
	sp     *scanPlan
	st     *obs.ScanStats
	order  []int // tiles in the order workers will want them
	budget int64 // stored bytes the fetched-but-unclaimed tiles may plan

	mu         sync.Mutex
	next       int          // order[next:] is not yet looked at
	fetches    []*tileFetch // by tile; nil = neither fetched nor claimed
	aheadBytes int64        // planned bytes of fetched-but-unclaimed tiles
	aheadTiles int
	planCnt    scanCounters   // views opened for planning count nothing
	wg         sync.WaitGroup // fetch goroutines in flight
}

// tileFetch is one tile's fetch: issued once, by the window or by the
// tile's claim, and waited on by that claim.
type tileFetch struct {
	done  chan struct{} // closed when the runs are resident (or failed)
	r     *segment.Reader
	runs  []segment.FetchRun
	bytes int64 // planned stored bytes
}

// nothingToFetch marks a tile claimed with every block resident.
var nothingToFetch = &tileFetch{}

// maxAheadTiles caps the tiles fetched ahead whatever the byte budget
// allows: a column-only scan plans a few KiB per tile, and half of a
// large pool would otherwise admit thousands of concurrent reads.
const maxAheadTiles = 64

// newFetchWindow returns the scan's window, or nil — on which claim
// and close are no-ops — when the scan will not touch the store: the
// source is in memory, or every block of every surviving tile is
// already resident. nTiles is the source's tile count.
func newFetchWindow(ctx context.Context, src scanSource, sp *scanPlan, morsels []morsel, nTiles, workers int, st *obs.ScanStats) *fetchWindow {
	pooled, ok := src.(interface{ Pool() *bufpool.Pool })
	if !ok {
		return nil
	}
	pool, tenant := pooled.Pool(), obs.TenantFrom(ctx)
	limit := pool.Capacity()
	if q := pool.Quota(tenant); q > 0 && q < limit {
		limit = q
	}
	fw := &fetchWindow{
		ctx: ctx, src: src, sp: sp, st: st,
		budget:  limit,
		fetches: make([]*tileFetch, nTiles),
		planCnt: scanCounters{tenant: tenant},
	}
	fw.order = fetchOrder(morsels, max(workers, 1))
	fw.advance()
	if fw.aheadTiles == 0 && fw.next == len(fw.order) {
		return nil
	}
	return fw
}

// fetchOrder lists the morsels' tiles in the order workers will want
// them: morsels are claimed in index order by `workers` participants
// that each walk their morsel front to back, so within every group of
// `workers` consecutive morsels the tiles are wanted round-robin.
func fetchOrder(morsels []morsel, workers int) []int {
	var order []int
	for g := 0; g < len(morsels); g += workers {
		group := morsels[g:min(g+workers, len(morsels))]
		for j, more := 0, true; more; j++ {
			more = false
			for _, m := range group {
				if ti := m.lo + j; ti < m.hi {
					order = append(order, ti)
					more = true
				}
			}
		}
	}
	return order
}

// plan computes tile ti's fetch from metadata and pool lookups: the
// blocks the accesses' plans may read (planAccess, docParts), so the
// scan reads no block the window did not fetch and the window fetches
// none the scan will not read. nil means the tile is skipped or fully
// resident.
func (fw *fetchWindow) plan(ti int) *tileFetch {
	t, ok := fw.src.openScanTile(ti, &fw.planCnt).(*segTileView)
	if !ok || fw.sp.skippable(t) {
		return nil
	}
	var refs []segment.BlockRef
	for ai, a := range fw.sp.accesses {
		p := fw.sp.plan(t, ai)
		if p.readsDocs() {
			refs = docParts(refs, t.meta, a)
		}
		if p.readsColumn() {
			cm := &t.meta.Columns[p.col]
			refs = append(refs, cm.Block)
			if cm.HasDict {
				refs = append(refs, cm.Dict)
			}
		}
	}
	runs, bytes := t.r.PlanFetch(refs)
	if len(runs) == 0 {
		return nil
	}
	return &tileFetch{done: make(chan struct{}), r: t.r, runs: runs, bytes: bytes}
}

// advance issues fetches along the order until the window is full.
// Called with mu held (or before the window is shared).
func (fw *fetchWindow) advance() {
	for ; fw.next < len(fw.order) && fw.ctx.Err() == nil; fw.next++ {
		ti := fw.order[fw.next]
		if fw.fetches[ti] != nil {
			continue // a claim got here first
		}
		f := fw.plan(ti)
		if f == nil {
			continue
		}
		total := fw.aheadBytes + f.bytes
		if total > fw.budget || fw.aheadTiles >= maxAheadTiles {
			return
		}
		fw.aheadBytes, fw.aheadTiles = total, fw.aheadTiles+1
		fw.fetches[ti] = f
		fw.wg.Add(1)
		go func() {
			defer fw.wg.Done()
			fw.run(f, true)
		}()
	}
}

// run executes one tile's fetch; ahead marks its blocks as fetched
// before any worker asked (prefetch-hit accounting). Failures are not
// reported here: the blocks stay non-resident and the demand path
// reports them. The fetch counts into a block of its own (worker
// counters are plain integers), flushed to the scan's stats once.
func (fw *fetchWindow) run(f *tileFetch, ahead bool) {
	defer close(f.done)
	tenant := fw.planCnt.tenant
	cnt := scanCounters{ScanCounts: f.r.Fetch(tenant, f.runs, ahead), tenant: tenant}
	cnt.flush(fw.st)
}

// claim makes tile ti's blocks resident before its worker scans it: it
// waits for the fetch the window issued, or performs the fetch itself
// when the window has not reached the tile. Only then does a tile the
// window fetched stop counting against it — released while still
// loading, it would let the window run a whole pool ahead of the first
// block used. Every tile is claimed at most once.
func (fw *fetchWindow) claim(ti int) {
	if fw == nil {
		return
	}
	fw.mu.Lock()
	f := fw.fetches[ti]
	mine := f == nil // else the window fetched it ahead
	if mine {
		if f = fw.plan(ti); f == nil {
			f = nothingToFetch
		}
		fw.fetches[ti] = f
	}
	fw.mu.Unlock()
	switch {
	case f.runs == nil:
	case mine:
		fw.run(f, false)
	default:
		<-f.done
	}
	fw.mu.Lock()
	if !mine {
		fw.aheadBytes -= f.bytes
		fw.aheadTiles--
	}
	fw.advance()
	fw.mu.Unlock()
}

// close waits out the fetches still in flight (a cancelled scan leaves
// some unclaimed), so the scan returns with no goroutine behind it;
// fetches insert unpinned, so nothing stays pinned either.
func (fw *fetchWindow) close() {
	if fw != nil {
		fw.wg.Wait()
	}
}

// docParts appends the document parts access a reads on tile tm to
// refs: the part holding its first key, or every part for a path that
// starts at the root or with a slot, which reads whole documents.
func docParts(refs []segment.BlockRef, tm *segment.TileMeta, a Access) []segment.BlockRef {
	if segs := a.Path.Segs; len(segs) > 0 && !segs[0].IsIndex {
		return append(refs, tm.DocRef(tm.DocPart(segs[0].Key)))
	}
	for p := 0; p <= len(tm.Docs); p++ {
		refs = append(refs, tm.DocRef(p))
	}
	return refs
}
