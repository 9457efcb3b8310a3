// Package bufpool implements the buffer pool that every segment block
// read flows through. The paper's host system (Umbra) manages tile
// blocks through its buffer manager; this package is the equivalent
// for the standalone engine: a capacity-bounded cache of block bytes
// with second-chance eviction, refcount pinning, and singleflight
// loading so concurrent scans of the same block pay for one read and
// one decode, not N.
//
// The pool caches the payload its loader returns — for segment blocks,
// the checksum-verified stored bytes, still LZ4-compressed. Capacity
// is accounted in payload bytes, not entry counts, because block
// sizes vary by orders of magnitude (a tile's JSONB fallback vs. a
// bool column).
//
// A block whose reader works on a decoded form (a typed column, a
// document directory) is decoded once per residency: Handle.Decoded
// runs the reader's decode on the first access after a load, and the
// entry then holds that value in place of the payload, charged what it
// retains, for every later access until eviction or DropFile.
//
// Multi-tenant governance: every block is attributed to the tenant
// whose scan loaded it (GetAs), tenants can be given byte quotas
// (SetQuota), and eviction is usage-ranked — a tenant over its quota
// evicts its own blocks, and global capacity pressure evicts from the
// tenant using the largest fraction of its allowance first, so one
// tenant's scan storm cannot wash every other tenant's working set
// out of the cache.
package bufpool

import (
	"sync"

	"repro/internal/obs"
)

// Key identifies one block: a pool-unique file ID (assigned by
// RegisterObject) plus the block's offset within the file. Offsets are
// unique per block within a segment, so (file, offset) is a stable
// identity even across reopens.
type Key struct {
	File uint64
	Off  uint64
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Evictions int64
	// Resident is the current payload byte total; Capacity the bound.
	Resident int64
	Capacity int64
	// PinnedBytes is the payload byte total of currently pinned
	// entries (handles not yet released). A quiesced pool — no scan in
	// flight — must report 0: pins leaking past a query (cancelled or
	// not) would make its blocks unevictable forever.
	PinnedBytes int64
}

// TenantStats is a snapshot of one tenant's pool accounting.
type TenantStats struct {
	// Resident is the payload bytes attributed to the tenant; Quota
	// its configured bound (0 = unquoted, bounded only by capacity).
	Resident int64
	Quota    int64
}

// Pool is a capacity-bounded block cache. The zero value is unusable;
// construct with New.
type Pool struct {
	mu       sync.Mutex
	capacity int64
	resident int64
	inserted int64 // payload bytes ever inserted: the pool's clock
	entries  map[Key]*entry
	ring     []*entry // eviction sweeps this
	flights  map[Key]*flight
	nextFile uint64
	objIDs   map[string]uint64 // RegisterObject memo: label → file ID
	tenants  map[string]*tenantAcct

	evictions int64
}

type entry struct {
	key Key
	// bytes is the loaded payload until Handle.Decoded replaces
	// it with decoded, under decodeMu; size is what the entry is
	// charged for (pool lock).
	bytes    []byte
	decoded  any
	size     int64
	decodeMu sync.Mutex
	tenant   string // loader attribution (usage-ranked eviction)
	pins     int32
	ref      bool // second-chance bit: set on access, cleared by sweeps
	dead     bool // removed from entries; awaiting ring compaction
	// warmed marks entries inserted by Put (a scan's fetch) and not
	// yet read: the first GetAs on one counts no hit, since the fetch
	// counted the miss. prefetched additionally marks a fetch that ran
	// ahead of the scan: that first GetAs counts a prefetch hit. Both
	// clear on that first GetAs.
	warmed     bool
	prefetched bool
	putAt      int64 // Pool.inserted when Put inserted the entry
}

// tenantAcct is one tenant's resident-byte ledger within a pool.
type tenantAcct struct {
	resident int64
	quota    int64 // 0 = unquoted
}

type flight struct {
	done   chan struct{}
	bytes  []byte
	err    error
	tenant string
}

// DefaultCapacity bounds the pool when the caller passes 0: 64 MiB,
// enough for a few hundred resident tile blocks.
const DefaultCapacity = 64 << 20

// New returns a pool bounded to capacity payload bytes.
func New(capacity int64) *Pool {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Pool{
		capacity: capacity,
		entries:  make(map[Key]*entry),
		flights:  make(map[Key]*flight),
		objIDs:   make(map[string]uint64),
		tenants:  make(map[string]*tenantAcct),
	}
}

// RegisterObject returns the pool-unique file ID for a store object
// label (store label + "/" + object name), memoized: reopening the
// same immutable object maps to the same ID, so its cached blocks
// survive the reopen. Distinct labels never share an ID.
func (p *Pool) RegisterObject(label string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.objIDs[label]; ok {
		return id
	}
	p.nextFile++
	p.objIDs[label] = p.nextFile
	return p.nextFile
}

// Capacity returns the pool's payload byte bound.
func (p *Pool) Capacity() int64 { return p.capacity }

// Contains reports whether key's payload is resident (no pin taken,
// no hit/miss accounting). Fetch planning filters already-cached
// blocks through this before issuing coalesced reads.
func (p *Pool) Contains(key Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[key]
	return ok
}

// Put inserts an unpinned payload for key if neither resident nor
// being loaded, reporting whether it was inserted. This is the
// readahead insert path: coalesced and prefetched reads publish their
// blocks for later GetAs calls without counting as hits or misses.
// prefetched marks the entry for prefetch-hit accounting on its first
// GetAs.
func (p *Pool) Put(tenant string, key Key, payload []byte, prefetched bool) bool {
	p.mu.Lock()
	if _, ok := p.entries[key]; ok {
		p.mu.Unlock()
		return false
	}
	if _, ok := p.flights[key]; ok {
		// A demand load is already in flight; let it win (one code path
		// for its waiters' pin accounting).
		p.mu.Unlock()
		return false
	}
	e := &entry{key: key, bytes: payload, size: int64(len(payload)), tenant: tenant, ref: true, warmed: true, prefetched: prefetched, putAt: p.inserted}
	p.entries[key] = e
	p.ring = append(p.ring, e)
	p.insertedLocked(e)
	p.mu.Unlock()
	return true
}

// SetQuota bounds tenant's resident bytes in this pool. Loading past
// the quota evicts the tenant's own unpinned blocks first, so a noisy
// tenant degrades its own hit ratio, not its neighbors'. A quota of 0
// removes the bound (capacity still applies). The quota is also
// mirrored to the tenant's metrics gauge.
func (p *Pool) SetQuota(tenant string, quota int64) {
	if tenant == "" {
		return
	}
	if quota < 0 {
		quota = 0
	}
	p.mu.Lock()
	p.acctLocked(tenant).quota = quota
	p.enforceTenantLocked(tenant)
	p.mu.Unlock()
	obs.Tenants.Get(tenant).PoolQuota.Set(float64(quota))
}

// Quota returns tenant's configured byte quota (0 = unquoted).
func (p *Pool) Quota(tenant string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.tenants[tenant]; ok {
		return a.quota
	}
	return 0
}

// acctLocked returns tenant's ledger, creating it if needed.
func (p *Pool) acctLocked(tenant string) *tenantAcct {
	a, ok := p.tenants[tenant]
	if !ok {
		a = &tenantAcct{}
		p.tenants[tenant] = a
	}
	return a
}

// Handle is a pinned reference to a cached block. The payload stays
// resident (never evicted) until Release.
type Handle struct {
	pool *Pool
	ent  *entry
}

// Bytes returns the cached payload, nil once Decoded has replaced it.
// Callers must not mutate it and must not retain it past Release.
func (h *Handle) Bytes() []byte {
	h.ent.decodeMu.Lock()
	defer h.ent.decodeMu.Unlock()
	return h.ent.bytes
}

// Decoded returns the block's decoded form, calling decode on the
// payload only on the first access of this residency; concurrent first
// accesses share one decode. decode reports the bytes its value
// retains, aliased payload memory included: the entry drops its own
// payload reference and is charged that size from then on (bounds are
// re-enforced at Release). The value is shared by every later GetAs, so
// immutable, and may be kept past Release (it is garbage-collected,
// never reused). A failed decode caches nothing.
func (h *Handle) Decoded(decode func(payload []byte) (v any, retained int64, err error)) (any, error) {
	e, p := h.ent, h.pool
	e.decodeMu.Lock()
	defer e.decodeMu.Unlock()
	if e.decoded == nil {
		v, retained, err := decode(e.bytes)
		if err != nil {
			return nil, err
		}
		p.mu.Lock() // pinned by h, so resident: re-book it where it is booked
		obs.BufpoolPinnedBytes.Add(float64(retained - e.size))
		p.chargeLocked(e, retained-e.size)
		e.decoded, e.bytes, e.size = v, nil, retained
		p.mu.Unlock()
	}
	return e.decoded, nil
}

// Release unpins the handle. After Release the payload may be evicted
// at any time; using Bytes' result afterwards is a data race with the
// allocator, not with the pool (bytes are never reused in place).
func (h *Handle) Release() {
	if h.ent == nil {
		return
	}
	p := h.pool
	p.mu.Lock()
	h.ent.pins--
	if h.ent.pins == 0 {
		obs.BufpoolPinnedBytes.Add(-float64(h.ent.size))
		// A block pinned through the last insert may have carried its
		// tenant (or the pool) over the bound; the unpin is the first
		// moment it becomes evictable, so enforce here rather than
		// waiting for the next load.
		if t := h.ent.tenant; t != "" {
			p.enforceTenantLocked(t)
		}
		if p.resident > p.capacity {
			p.evictLocked()
		}
	}
	p.mu.Unlock()
	h.ent = nil
}

// GetAs returns a pinned handle for key, calling load (outside the pool
// lock) to produce the payload on a miss. Concurrent GetAs calls for
// the same absent key share one load: the losers block until the
// winner's load returns. A failed load caches nothing and the error
// propagates to every waiter.
//
// The access counts into c: a miss as PoolMisses, a hit as PoolHits,
// except the first access to a block Put inserted, which the fetch that
// inserted it already counted as a miss: it counts as StorePrefetchHits
// when the fetch ran ahead of the scan, else nothing.
//
// A loaded block's bytes charge tenant's ledger ("" = unattributed),
// and the insert enforces the tenant's quota by evicting its own
// unpinned blocks. A hit on a block another tenant loaded stays
// attributed to the loader — attribution follows who paid the I/O, and
// a shared hot block should not bounce between ledgers on every access.
func (p *Pool) GetAs(tenant string, key Key, c *obs.ScanCounts, load func() ([]byte, error)) (*Handle, error) {
	for {
		p.mu.Lock()
		if e, ok := p.entries[key]; ok {
			if e.pins == 0 {
				obs.BufpoolPinnedBytes.Add(float64(e.size))
			}
			e.pins++
			e.ref = true
			warmed, pf := e.warmed, e.prefetched
			e.warmed, e.prefetched = false, false
			p.mu.Unlock()
			switch {
			case pf:
				c.StorePrefetchHits++
				obs.StorePrefetchHits.Add(1)
			case !warmed:
				c.PoolHits++
			}
			return &Handle{pool: p, ent: e}, nil
		}
		if f, ok := p.flights[key]; ok {
			// Someone else is loading this block; wait and retry. The
			// retry (rather than using f.bytes directly) keeps a single
			// code path for pin accounting.
			p.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, f.err
			}
			continue
		}
		f := &flight{done: make(chan struct{}), tenant: tenant}
		p.flights[key] = f
		p.mu.Unlock()
		c.PoolMisses++

		f.bytes, f.err = load()

		p.mu.Lock()
		delete(p.flights, key)
		if f.err != nil {
			p.mu.Unlock()
			close(f.done)
			return nil, f.err
		}
		e := &entry{key: key, bytes: f.bytes, size: int64(len(f.bytes)), tenant: tenant, pins: 1, ref: true}
		obs.BufpoolPinnedBytes.Add(float64(e.size))
		p.entries[key] = e
		p.ring = append(p.ring, e)
		p.insertedLocked(e)
		p.mu.Unlock()
		close(f.done)
		return &Handle{pool: p, ent: e}, nil
	}
}

// insertedLocked books a newly inserted entry, advances the pool's
// clock, and enforces the loader's quota and the global capacity.
func (p *Pool) insertedLocked(e *entry) {
	p.inserted += e.size
	p.chargeLocked(e, e.size)
	if e.tenant != "" {
		p.enforceTenantLocked(e.tenant)
	}
	p.evictLocked()
}

// chargeLocked books n bytes (negative on eviction) of an entry into
// the pool-wide and per-tenant ledgers and their metrics gauges.
func (p *Pool) chargeLocked(e *entry, n int64) {
	p.resident += n
	obs.BufpoolBytes.Add(float64(n))
	if e.tenant != "" {
		p.acctLocked(e.tenant).resident += n
		obs.Tenants.Get(e.tenant).PoolBytes.Add(float64(n))
	}
}

// removeLocked evicts ring slot i: unbooks the entry and compacts the
// ring in place (the last entry moves into the hole).
func (p *Pool) removeLocked(i int) {
	e := p.ring[i]
	e.dead = true
	delete(p.entries, e.key)
	p.chargeLocked(e, -e.size)
	p.evictions++
	obs.BufpoolEvictions.Add(1)
	last := len(p.ring) - 1
	p.ring[i] = p.ring[last]
	p.ring[last] = nil
	p.ring = p.ring[:last]
}

// victimLocked picks one evictable ring slot belonging to tenant
// (any tenant when ""): unpinned, preferring entries without the
// second-chance bit; an entry passed over for its ref bit loses it,
// so repeated pressure degrades gracefully to LRU-ish behavior.
// Recently fetched blocks nobody has read yet go last. Returns -1
// when the tenant has nothing evictable (all pinned).
func (p *Pool) victimLocked(tenant string) int {
	fallback, unread := -1, -1
	for i, e := range p.ring {
		if e.pins > 0 || (tenant != "" && e.tenant != tenant) {
			continue
		}
		if e.warmed && p.inserted-e.putAt < p.capacity {
			// Fetched for a scan that has not read it yet: evicting it
			// means reading it twice, evicting a block already read costs
			// that scan nothing. Lapses after a pool's worth of inserts
			// (fetch planning is conservative; some blocks are never read).
			if unread < 0 {
				unread = i
			}
			continue
		}
		if !e.ref {
			return i
		}
		e.ref = false // second chance spent
		if fallback < 0 {
			fallback = i
		}
	}
	if fallback < 0 {
		return unread
	}
	return fallback
}

// enforceTenantLocked evicts tenant's own unpinned blocks until its
// resident bytes fit its quota. With everything pinned the quota is
// temporarily exceeded (like capacity) and re-enforced as pins drop
// (Handle.Release) or on subsequent loads.
func (p *Pool) enforceTenantLocked(tenant string) {
	a, ok := p.tenants[tenant]
	if !ok || a.quota <= 0 {
		return
	}
	for a.resident > a.quota {
		i := p.victimLocked(tenant)
		if i < 0 {
			return
		}
		p.removeLocked(i)
	}
}

// usageLocked is a tenant's fraction of its allowance: resident/quota
// for quoted tenants, resident/capacity otherwise (untenanted bytes
// rank by capacity share too). Usage-ranked global eviction targets
// the highest fraction first.
func (p *Pool) usageLocked(tenant string) float64 {
	var resident int64
	quota := p.capacity
	if tenant == "" {
		resident = p.resident
		for _, a := range p.tenants {
			resident -= a.resident
		}
	} else if a, ok := p.tenants[tenant]; ok {
		resident = a.resident
		if a.quota > 0 {
			quota = a.quota
		}
	}
	if quota <= 0 {
		return 0
	}
	return float64(resident) / float64(quota)
}

// evictLocked enforces the global capacity: while over, evict one
// block from the tenant with the highest allowance usage (sneller's
// tenant-cache policy: heaviest relative user pays first). A heaviest
// tenant with everything pinned falls through to any evictable block;
// when nothing at all is evictable the pool temporarily exceeds
// capacity rather than deadlocking.
func (p *Pool) evictLocked() {
	for p.resident > p.capacity && len(p.ring) > 0 {
		heaviest, top, found := "", 0.0, false
		seen := map[string]bool{}
		for _, e := range p.ring {
			if e.pins > 0 || seen[e.tenant] {
				continue
			}
			seen[e.tenant] = true
			if u := p.usageLocked(e.tenant); !found || u > top {
				heaviest, top, found = e.tenant, u, true
			}
		}
		i := -1
		if found {
			i = p.victimLocked(heaviest)
		}
		if i < 0 && heaviest != "" {
			i = p.victimLocked("")
		}
		if i < 0 {
			return // everything pinned
		}
		p.removeLocked(i)
	}
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pinned int64
	for _, e := range p.ring {
		if e.pins > 0 {
			pinned += e.size
		}
	}
	return Stats{
		Evictions:   p.evictions,
		Resident:    p.resident,
		Capacity:    p.capacity,
		PinnedBytes: pinned,
	}
}

// TenantStats returns tenant's ledger snapshot.
func (p *Pool) TenantStats(tenant string) TenantStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.tenants[tenant]; ok {
		return TenantStats{Resident: a.resident, Quota: a.quota}
	}
	return TenantStats{}
}

// DropFile evicts every unpinned resident block of the given file
// (called when a segment closes so a long-lived shared pool does not
// accumulate blocks of files nobody can read anymore). Pinned blocks
// survive until released and are then evictable as usual.
func (p *Pool) DropFile(file uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.ring[:0]
	for _, e := range p.ring {
		if e.key.File == file && e.pins == 0 {
			delete(p.entries, e.key)
			p.chargeLocked(e, -e.size)
			e.dead = true
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(p.ring); i++ {
		p.ring[i] = nil
	}
	p.ring = kept
}
