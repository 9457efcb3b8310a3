package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/keypath"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/tile"
)

// DirTable is a multi-segment, disk-backed relation: a block store of
// immutable segment objects catalogued by a crash-safe manifest.
// Appends write a new segment and commit a new manifest generation —
// O(new data), never a table rewrite — and a size-tiered compactor
// folds accumulated small segments into larger ones in the
// background. Queries scan the union of the live segments through
// the shared scan core, skipping tiles on their tile headers (§4.8).
//
// Concurrency follows an epoch scheme: every scan pins the segment
// list it starts with (per-segment refcounts), so compaction can
// commit a new generation and mark old segments dead while in-flight
// scans keep reading them; the last release closes the reader, drops
// its pool blocks, and deletes the dead file.
type DirTable struct {
	name    string
	store   blockstore.Store
	pool    *bufpool.Pool
	scancfg scanConfig
	fanIn   int  // segments merged per compaction round (≥2)
	auto    bool // compact in the background after appends

	// mu guards the current generation: its manifest version, its
	// segment list (the manifest's, in order), the closed flag, and
	// segment-id allocation. nextID is the allocation watermark, which
	// every commit writes as the manifest's NextID.
	mu      sync.Mutex
	version uint64
	segs    []*liveSeg
	nextID  uint64
	closed  bool

	// writeMu serializes manifest commits (append and compaction
	// publish steps). Held only around copy-commit-swap, never
	// during segment file writes.
	writeMu sync.Mutex

	// collect runs orphan collection before the first segment write.
	collect sync.Once

	// compactMu serializes compaction work; wg tracks background
	// compaction goroutines so Close can wait them out.
	compactMu sync.Mutex
	wg        sync.WaitGroup

	statsMu     sync.Mutex
	statsCache  *stats.TableStats
	backlogMu   sync.Mutex
	lastBacklog int64

	errMu sync.Mutex
	err   error
}

var (
	_ Relation     = (*DirTable)(nil)
	_ StatsScanner = (*DirTable)(nil)
	_ TileCounter  = (*DirTable)(nil)
)

// liveSeg is one open segment of some table generation. refs counts
// the table's own membership (1 while the segment is in the current
// generation) plus one per in-flight scan pinning it; the release
// that drops refs to zero closes the reader and, if the segment was
// compacted away, deletes its object.
type liveSeg struct {
	r     *segment.Reader
	store blockstore.Store
	id    uint64
	file  string // object name within the store
	rows  int
	bytes int64
	refs  atomic.Int64
	drop  atomic.Bool
}

func (ls *liveSeg) retain() { ls.refs.Add(1) }

func (ls *liveSeg) release() {
	if ls.refs.Add(-1) == 0 {
		ls.r.Close()
		if ls.drop.Load() {
			ls.store.Delete(ls.file)
		}
	}
}

var errDirTableClosed = errors.New("storage: directory table is closed")

// DefaultCompactFanIn is how many same-tier segments trigger (and
// take part in) one compaction round when no explicit fan-in is set.
const DefaultCompactFanIn = 4

// OpenDirStore opens (or creates) a multi-segment table over a block
// store. The open reads the committed manifest and nothing else — one
// request whatever the segment count: each segment's Reader is built
// from the tile index its manifest entry carries. It neither lists nor
// deletes (collectOrphans).
// fanIn sets the compaction fan-in (0 selects
// DefaultCompactFanIn, values below 2 are raised to 2); auto enables
// background compaction after appends. All block reads flow through
// pool (a private default-capacity pool is created when nil). Catalog,
// appends, compaction, and scans all speak the store interface; the
// caller keeps ownership of the store (Close leaves it open).
func OpenDirStore(name string, store blockstore.Store, pool *bufpool.Pool, cfg LoaderConfig, fanIn int, auto bool) (*DirTable, error) {
	man, err := manifest.LoadStore(store)
	if err != nil {
		return nil, err
	}
	if man == nil {
		// Fresh store: commit the empty first generation so the store
		// is a recognizable table from here on.
		man = &manifest.Manifest{Version: 1}
		if err := manifest.CommitStore(store, man); err != nil {
			return nil, err
		}
	}
	if pool == nil {
		pool = bufpool.New(0)
	}
	if fanIn == 0 {
		fanIn = DefaultCompactFanIn
	}
	if fanIn < 2 {
		fanIn = 2
	}
	t := &DirTable{
		name:    name,
		store:   store,
		pool:    pool,
		scancfg: scanCfgOf(cfg),
		fanIn:   fanIn,
		auto:    auto,
		version: man.Version,
		nextID:  man.NextID,
	}
	for _, s := range man.Segments {
		r, err := segment.OpenIndexed(store, s.File, pool, s.Bytes, s.Index)
		if err != nil {
			for _, ls := range t.segs {
				ls.r.Close()
			}
			return nil, err
		}
		t.segs = append(t.segs, newLiveSeg(r, store, s.ID))
	}
	obs.SegmentsLive.Add(float64(len(t.segs)))
	t.updateBacklogGauge()
	return t, nil
}

// newLiveSeg wraps segment id's Reader as a member of the current
// generation.
func newLiveSeg(r *segment.Reader, store blockstore.Store, id uint64) *liveSeg {
	ls := &liveSeg{r: r, store: store, id: id, file: r.Name(), rows: r.NumRows(), bytes: r.FileSize()}
	ls.refs.Store(1)
	return ls
}

// scanCfgOf derives the scan-core settings from a loader config.
func scanCfgOf(cfg LoaderConfig) scanConfig {
	maxSlots := cfg.Tile.MaxArraySlots
	if maxSlots <= 0 {
		maxSlots = keypath.DefaultMaxArraySlots
	}
	return scanConfig{skipTiles: cfg.SkipTiles, maxSlots: maxSlots}
}

func (t *DirTable) Name() string { return t.name }

func (t *DirTable) NumRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, ls := range t.segs {
		total += ls.rows
	}
	return total
}

// SizeBytes is the stored footprint of the live segment objects.
func (t *DirTable) SizeBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := int64(0)
	for _, ls := range t.segs {
		total += ls.bytes
	}
	return int(total)
}

// NumTiles sums the live segments' tile counts.
func (t *DirTable) NumTiles() int {
	segs := t.snapshot()
	defer releaseSegs(segs)
	total := 0
	for _, ls := range segs {
		total += ls.r.NumTiles()
	}
	return total
}

// NumSegments returns the number of live segments (the EXPLAIN
// ANALYZE segments_live figure).
func (t *DirTable) NumSegments() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.segs)
}

// Pool exposes the buffer pool serving this table.
func (t *DirTable) Pool() *bufpool.Pool { return t.pool }

// Stats returns the relation statistics: the merged view over every
// live segment's footer statistics, cached until the segment set
// changes. The first call reads the footers not yet in memory, all at
// once — one round trip; a failed read is recorded for Err and
// returns nil, which planners treat as "no statistics".
func (t *DirTable) Stats() *stats.TableStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.statsCache != nil {
		return t.statsCache
	}
	segs := t.snapshot()
	defer releaseSegs(segs)
	all := make([]*stats.TableStats, len(segs))
	errs := make([]error, len(segs))
	sem := make(chan struct{}, 32) // a table that never compacts can hold hundreds
	var wg sync.WaitGroup
	for i, ls := range segs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			all[i], errs[i] = ls.r.Stats()
			<-sem
		}()
	}
	wg.Wait()
	merged := stats.New(0, 0)
	for i, st := range all {
		if errs[i] != nil {
			t.recordErr(fmt.Errorf("segment %s statistics: %w", segs[i].file, errs[i]))
			return nil
		}
		merged.Merge(st)
	}
	t.statsCache = merged
	return merged
}

func (t *DirTable) invalidateStats() {
	t.statsMu.Lock()
	t.statsCache = nil
	t.statsMu.Unlock()
}

// Err returns the table's first recorded error: a scan stopped by a
// block that failed its read, or a background compaction that failed.
// A query reports its own scans' errors; Err is the sticky record.
func (t *DirTable) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

func (t *DirTable) recordErr(err error) {
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.errMu.Unlock()
}

// snapshot pins and returns the current generation's segment list.
// Callers must releaseSegs the result.
func (t *DirTable) snapshot() []*liveSeg {
	t.mu.Lock()
	segs := make([]*liveSeg, len(t.segs))
	copy(segs, t.segs)
	for _, ls := range segs {
		ls.retain()
	}
	t.mu.Unlock()
	return segs
}

func releaseSegs(segs []*liveSeg) {
	for _, ls := range segs {
		ls.release()
	}
}

// multiSource drives the shared scan core over the union of pinned
// segments: tile indexes are globalized across segments, so tile
// parallelism and skip accounting span the whole table.
type multiSource struct {
	readers []*segment.Reader
	offs    []int // offs[i] = first global tile index of segment i; offs[len] = total
	pool    *bufpool.Pool
	cfg     scanConfig
}

func (t *DirTable) newMultiSource(segs []*liveSeg) *multiSource {
	m := &multiSource{
		readers: make([]*segment.Reader, len(segs)),
		offs:    make([]int, len(segs)+1),
		pool:    t.pool,
		cfg:     t.scancfg,
	}
	for i, ls := range segs {
		m.readers[i] = ls.r
		m.offs[i+1] = m.offs[i] + ls.r.NumTiles()
	}
	return m
}

func (m *multiSource) Pool() *bufpool.Pool    { return m.pool }
func (m *multiSource) scanConfig() scanConfig { return m.cfg }

func (m *multiSource) appendTileRows(dst []int) []int {
	for _, r := range m.readers {
		for ti := range r.NumTiles() {
			dst = append(dst, r.Tile(ti).Rows)
		}
	}
	return dst
}

func (m *multiSource) openScanTile(ti int, cnt *scanCounters) scanTile {
	i := sort.Search(len(m.readers), func(i int) bool { return m.offs[i+1] > ti })
	ti -= m.offs[i]
	return &segTileView{r: m.readers[i], ti: ti, meta: m.readers[i].Tile(ti), cnt: cnt}
}

// ScanWithStats implements StatsScanner by boxing the rows of the
// batch scan. Its only caller is benchmark/wrap.go, whose traced
// relation wrapper requires it.
func (t *DirTable) ScanWithStats(ctx context.Context, accesses []Access, workers int, emit EmitFunc, st *obs.ScanStats) {
	scanRows(ctx, t, accesses, workers, emit, st)
}

// ScanBatches runs the shared batch-scan core over the pinned union
// of live segments. A cancelled ctx or an unreadable block (recorded
// for Err) stops the scan within one morsel; the deferred release drops
// the segment pins either way, so compaction is never blocked by
// abandoned queries.
func (t *DirTable) ScanBatches(ctx context.Context, accesses []Access, workers int, emit BatchEmitFunc, st *obs.ScanStats) {
	segs := t.snapshot()
	defer releaseSegs(segs)
	if err := scanBatchesCore(ctx, t.newMultiSource(segs), accesses, workers, emit, st); err != nil {
		t.recordErr(err)
	}
}

// AppendTiles persists the tiles (with their relation statistics) as
// one new segment and commits a manifest generation referencing it —
// the incremental flush path. Work is O(new data): existing segments
// are untouched. If the manifest commit fails, the freshly written
// segment file is left for recovery to collect, exactly as a crash
// at that point would; the table keeps serving the prior generation.
// The segment is encoded on up to workers participants.
func (t *DirTable) AppendTiles(tiles []*tile.Tile, st *stats.TableStats, workers int) error {
	if len(tiles) == 0 {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errDirTableClosed
	}
	id := t.nextID
	t.nextID++
	t.mu.Unlock()

	t.collectOrphans()
	r, err := segment.Write(t.store, manifest.SegmentFileName(id), tiles, st, t.pool, workers)
	if err != nil {
		return err
	}
	ls := newLiveSeg(r, t.store, id)

	if err := t.commitGeneration(func(segs []*liveSeg) []*liveSeg {
		return append(segs, ls)
	}); err != nil {
		// Crash-equivalent state: the segment file exists but no
		// generation references it. The next writer's orphan collection
		// removes it; the current generation stays live and consistent.
		r.Close()
		return err
	}
	obs.SegmentsLive.Add(1)
	t.updateBacklogGauge()
	t.invalidateStats()
	if t.auto {
		t.compactAsync()
	}
	return nil
}

// updateBacklogGauge refreshes this table's contribution to the
// process-wide compaction-backlog gauge: the number of live segments
// sitting in tiers that have reached the compaction fan-in. Deltas
// are added (not Set) so tables sharing the gauge sum correctly.
func (t *DirTable) updateBacklogGauge() {
	t.mu.Lock()
	byTier := map[int]int{}
	for _, ls := range t.segs {
		byTier[tierOf(ls.bytes)]++
	}
	backlog := 0
	for _, n := range byTier {
		if n >= t.fanIn {
			backlog += n
		}
	}
	t.mu.Unlock()
	t.backlogMu.Lock()
	delta := int64(backlog) - t.lastBacklog
	t.lastBacklog = int64(backlog)
	t.backlogMu.Unlock()
	obs.CompactionBacklog.Add(float64(delta))
}

// collectOrphans runs before this table's first segment write: it
// deletes the objects the opened generation does not reference — the
// debris of a writer that crashed between its segment Put and its
// commit. It cannot take this table's own segments, none of which is
// written yet, nor another process's, because a store has one writer
// (DESIGN.md §6.9); a table that never writes never lists or deletes.
// Collection is best effort: debris it leaves costs space, not answers.
func (t *DirTable) collectOrphans() {
	t.collect.Do(func() {
		t.mu.Lock()
		live := &manifest.Manifest{}
		for _, ls := range t.segs {
			live.Segments = append(live.Segments, manifest.Segment{File: ls.file})
		}
		t.mu.Unlock()
		if removed, _ := manifest.CollectOrphans(t.store, live); removed > 0 {
			obs.ManifestRecoveries.Add(1)
		}
	})
}

// commitGeneration applies edit to a copy of the current segment
// list, commits the manifest listing the result durably, and on
// success swaps the list in — all under the commit lock so generations
// are totally ordered. The committed NextID is the live allocation
// watermark, so ids reserved by in-flight writers are never reusable
// after a crash, even before their own commits land.
func (t *DirTable) commitGeneration(edit func([]*liveSeg) []*liveSeg) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errDirTableClosed
	}
	segs := append([]*liveSeg(nil), t.segs...)
	man := &manifest.Manifest{Version: t.version + 1, NextID: t.nextID}
	t.mu.Unlock()
	segs = edit(segs)
	for _, ls := range segs {
		man.Segments = append(man.Segments, manifest.Segment{ID: ls.id, File: ls.file, Bytes: ls.bytes, Index: ls.r.Index()})
	}
	if err := manifest.CommitStore(t.store, man); err != nil {
		return err
	}
	t.mu.Lock()
	t.version, t.segs = man.Version, segs
	t.mu.Unlock()
	return nil
}

// Compact runs size-tiered compaction rounds until no tier holds
// fanIn segments, returning how many rounds ran. Safe to call
// concurrently with scans and appends; rounds are serialized.
func (t *DirTable) Compact() (int, error) {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	rounds := 0
	for {
		did, err := t.compactOnce()
		if err != nil || !did {
			return rounds, err
		}
		rounds++
	}
}

// compactAsync kicks one background compaction pass if none is
// running (a running pass loops until stable, so a skipped kick loses
// nothing).
func (t *DirTable) compactAsync() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		if !t.compactMu.TryLock() {
			return
		}
		defer t.compactMu.Unlock()
		for {
			did, err := t.compactOnce()
			if err != nil {
				t.recordErr(err)
				return
			}
			if !did {
				return
			}
		}
	}()
}

// tierOf buckets a segment by size: tier 0 under 64 KiB, each tier
// spanning a 4× size range above that. Segments only merge within a
// tier, so one big early segment never forces rewriting the table to
// absorb small appends.
func tierOf(bytes int64) int {
	t := 0
	for s := int64(64 << 10); bytes >= s && t < 30; s *= 4 {
		t++
	}
	return t
}

// pickCompaction chooses the fanIn smallest segments of the lowest
// tier holding at least fanIn members, or nil when the table is
// already compact. Called with t.mu held.
func (t *DirTable) pickCompaction() []*liveSeg {
	byTier := map[int][]*liveSeg{}
	for _, ls := range t.segs {
		tier := tierOf(ls.bytes)
		byTier[tier] = append(byTier[tier], ls)
	}
	best := -1
	for tier, group := range byTier {
		if len(group) >= t.fanIn && (best < 0 || tier < best) {
			best = tier
		}
	}
	if best < 0 {
		return nil
	}
	group := byTier[best]
	sort.Slice(group, func(i, j int) bool {
		if group[i].bytes != group[j].bytes {
			return group[i].bytes < group[j].bytes
		}
		return group[i].id < group[j].id
	})
	return group[:t.fanIn]
}

// compactOnce merges one group of same-tier segments into a new
// segment and commits the generation that swaps them. Sources stay
// readable throughout: in-flight scans hold pins, and files are
// deleted only when the last pin drops.
func (t *DirTable) compactOnce() (bool, error) {
	start := time.Now()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false, nil
	}
	group := t.pickCompaction()
	if group == nil {
		t.mu.Unlock()
		return false, nil
	}
	for _, ls := range group {
		ls.retain()
	}
	id := t.nextID
	t.nextID++
	t.mu.Unlock()
	defer releaseSegs(group)

	readers := make([]*segment.Reader, len(group))
	for i, ls := range group {
		readers[i] = ls.r
	}
	t.collectOrphans()
	r, err := segment.MergeStore(t.store, manifest.SegmentFileName(id), readers, t.pool)
	if err != nil {
		return false, err
	}
	merged := newLiveSeg(r, t.store, id)

	dead := make(map[*liveSeg]bool, len(group))
	for _, ls := range group {
		dead[ls] = true
	}
	if err := t.commitGeneration(func(segs []*liveSeg) []*liveSeg {
		// The merged segment takes the slot of the first dead source,
		// preserving rough scan order.
		kept := segs[:0]
		inserted := false
		for _, ls := range segs {
			if !dead[ls] {
				kept = append(kept, ls)
			} else if !inserted {
				kept, inserted = append(kept, merged), true
			}
		}
		if !inserted {
			kept = append(kept, merged)
		}
		return kept
	}); err != nil {
		// Failed publish: drop the merged output (it is unreferenced)
		// and keep serving the sources.
		r.Close()
		t.store.Delete(merged.file)
		return false, err
	}
	// Retire the sources: mark dead so the final release deletes the
	// file, then drop the store's own reference. Scans still holding
	// pins keep the old generation alive until they finish.
	for _, ls := range group {
		ls.drop.Store(true)
		ls.release()
	}
	obs.SegmentsLive.Add(float64(1 - len(group)))
	obs.CompactionsRun.Add(1)
	obs.CompactionBytesRewritten.Add(merged.bytes)
	obs.CompactionSeconds.ObserveSince(start)
	t.updateBacklogGauge()
	t.invalidateStats()
	return true, nil
}

// Close waits out background compaction and releases every live
// segment; the store stays open. In-flight scans finish against their
// pinned generation.
func (t *DirTable) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
	t.mu.Lock()
	segs := t.segs
	t.segs = nil
	t.mu.Unlock()
	for _, ls := range segs {
		ls.release()
	}
	obs.SegmentsLive.Add(-float64(len(segs)))
	t.updateBacklogGauge()
	return nil
}
