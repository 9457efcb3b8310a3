// Package stats maintains relation-level statistics aggregated from
// per-tile information (paper §4.6): a fixed number of key-path
// frequency counters and HyperLogLog sketches, with the paper's
// recency+frequency slot-replacement policy, plus the estimators the
// query optimizer consumes.
//
// The slot bounds (256 frequency counters, 64 sketches) cap optimizer
// memory regardless of how many distinct key paths the data contains.
package stats

import (
	"sort"
	"sync"

	"repro/internal/hist"
	"repro/internal/hll"
	"repro/internal/tile"
)

// Defaults from the paper: "We suggest 64 sketches and 256 frequency
// counters as an upper bound on the statistics."
const (
	DefaultFreqSlots   = 256
	DefaultSketchSlots = 64
)

type freqEntry struct {
	count    int64
	lastTile int64 // tile sequence number of the last update
}

type sketchEntry struct {
	sketch   *hll.Sketch
	lastTile int64
}

type histEntry struct {
	hist     *hist.Histogram
	lastTile int64
}

// TableStats aggregates tile statistics for one relation. Safe for
// concurrent use: loading updates it from many workers while queries
// read estimates.
type TableStats struct {
	mu          sync.RWMutex
	freqSlots   int
	sketchSlots int
	freq        map[string]*freqEntry
	sketches    map[string]*sketchEntry
	histograms  map[string]*histEntry
	totalRows   int64
	tileSeq     int64
}

// New returns statistics with the given slot bounds (zero selects the
// paper's defaults).
func New(freqSlots, sketchSlots int) *TableStats {
	if freqSlots <= 0 {
		freqSlots = DefaultFreqSlots
	}
	if sketchSlots <= 0 {
		sketchSlots = DefaultSketchSlots
	}
	return &TableStats{
		freqSlots:   freqSlots,
		sketchSlots: sketchSlots,
		freq:        map[string]*freqEntry{},
		sketches:    map[string]*sketchEntry{},
		histograms:  map[string]*histEntry{},
	}
}

// AddTile folds one tile's frequency database and sketches into the
// relation statistics.
func (s *TableStats) AddTile(t *tile.Tile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tileSeq++
	seq := s.tileSeq
	s.totalRows += int64(t.NumRows())

	for path, count := range t.PathFrequencies() {
		if e, ok := s.freq[path]; ok {
			e.count += int64(count)
			e.lastTile = seq
			continue
		}
		if len(s.freq) < s.freqSlots {
			s.freq[path] = &freqEntry{count: int64(count), lastTile: seq}
			continue
		}
		// All slots utilized: replace the stalest slot (oldest tile,
		// then lowest count) — new values can overwrite existing ones
		// but the most frequent stay.
		victim := s.pickFreqVictim()
		if victim != "" && s.freq[victim].count < int64(count) {
			delete(s.freq, victim)
			s.freq[path] = &freqEntry{count: int64(count), lastTile: seq}
		}
	}

	for path, hg := range t.Histograms() {
		if e, ok := s.histograms[path]; ok {
			e.hist.Merge(hg)
			e.lastTile = seq
			continue
		}
		if len(s.histograms) < s.sketchSlots {
			cp := *hg
			s.histograms[path] = &histEntry{hist: &cp, lastTile: seq}
			continue
		}
		victim, vE := "", (*histEntry)(nil)
		for p, e := range s.histograms {
			if vE == nil || e.lastTile < vE.lastTile {
				victim, vE = p, e
			}
		}
		if victim != "" && vE.hist.Total() < hg.Total() {
			delete(s.histograms, victim)
			cp := *hg
			s.histograms[path] = &histEntry{hist: &cp, lastTile: seq}
		}
	}

	for path, sk := range t.Sketches() {
		if e, ok := s.sketches[path]; ok {
			e.sketch.Merge(sk)
			e.lastTile = seq
			continue
		}
		if len(s.sketches) < s.sketchSlots {
			s.sketches[path] = &sketchEntry{sketch: sk.Clone(), lastTile: seq}
			continue
		}
		victim := s.pickSketchVictim()
		if victim != "" {
			ve := s.sketches[victim]
			if ve.sketch.Estimate() < sk.Estimate() || ve.lastTile < seq-int64(s.sketchSlots) {
				delete(s.sketches, victim)
				s.sketches[path] = &sketchEntry{sketch: sk.Clone(), lastTile: seq}
			}
		}
	}
}

func (s *TableStats) pickFreqVictim() string {
	victim := ""
	var vE *freqEntry
	for p, e := range s.freq {
		if vE == nil || e.lastTile < vE.lastTile ||
			(e.lastTile == vE.lastTile && e.count < vE.count) ||
			(e.lastTile == vE.lastTile && e.count == vE.count && p < victim) {
			victim, vE = p, e
		}
	}
	return victim
}

func (s *TableStats) pickSketchVictim() string {
	victim := ""
	var vE *sketchEntry
	for p, e := range s.sketches {
		if vE == nil || e.lastTile < vE.lastTile {
			victim, vE = p, e
		}
	}
	return victim
}

// RowCount returns the total tuples folded in.
func (s *TableStats) RowCount() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalRows
}

// PathCount estimates how many tuples carry the path with a non-null
// value. A tracked path answers exactly; an untracked one answers with
// the smallest tracked counter — the paper's "the missing counter will
// behave most similarly to the key with the minimal frequency".
func (s *TableStats) PathCount(path string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.freq[path]; ok {
		return e.count
	}
	min := int64(-1)
	for _, e := range s.freq {
		if min < 0 || e.count < min {
			min = e.count
		}
	}
	if min < 0 {
		return s.totalRows // no statistics at all: assume present everywhere
	}
	return min
}

// HasPathStats reports whether the path has an exact frequency counter.
func (s *TableStats) HasPathStats(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.freq[path]
	return ok
}

// DistinctCount estimates the number of distinct non-null values of
// the path. Without a sketch it falls back to the path count (every
// value distinct — the conservative upper bound).
func (s *TableStats) DistinctCount(path string) float64 {
	s.mu.RLock()
	e, ok := s.sketches[path]
	s.mu.RUnlock()
	if ok {
		if est := e.sketch.Estimate(); est >= 1 {
			return est
		}
		return 1
	}
	c := s.PathCount(path)
	if c < 1 {
		return 1
	}
	return float64(c)
}

// Selectivity estimators used by the optimizer.

// SelEquality estimates the selectivity of path = constant: 1/d.
func (s *TableStats) SelEquality(path string) float64 {
	d := s.DistinctCount(path)
	if d < 1 {
		d = 1
	}
	sel := 1.0 / d
	// Scale by the fraction of tuples that carry the path at all.
	return sel * s.SelNotNull(path)
}

// SelNotNull estimates the selectivity of "path is not null".
func (s *TableStats) SelNotNull(path string) float64 {
	rows := s.RowCount()
	if rows == 0 {
		return 1
	}
	f := float64(s.PathCount(path)) / float64(rows)
	if f > 1 {
		f = 1
	}
	return f
}

// SelRange estimates a range predicate's selectivity. Without a
// histogram the classic System-R default of 1/3 is used, scaled by
// path presence.
func (s *TableStats) SelRange(path string) float64 {
	return s.SelNotNull(path) / 3
}

// SelLess estimates the selectivity of path < x using the aggregated
// histogram when one exists; otherwise the SelRange default.
func (s *TableStats) SelLess(path string, x float64) float64 {
	s.mu.RLock()
	e, ok := s.histograms[path]
	s.mu.RUnlock()
	if !ok {
		return s.SelRange(path)
	}
	return e.hist.SelLess(x) * s.SelNotNull(path)
}

// SelGreater estimates the selectivity of path > x.
func (s *TableStats) SelGreater(path string, x float64) float64 {
	s.mu.RLock()
	e, ok := s.histograms[path]
	s.mu.RUnlock()
	if !ok {
		return s.SelRange(path)
	}
	return e.hist.SelGreater(x) * s.SelNotNull(path)
}

// Histogram returns the aggregated histogram of a path (nil if
// untracked) for diagnostics.
func (s *TableStats) Histogram(path string) *hist.Histogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.histograms[path]; ok {
		return e.hist
	}
	return nil
}

// TrackedPaths returns the paths with exact counters, most frequent
// first (diagnostics and reports).
func (s *TableStats) TrackedPaths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	paths := make([]string, 0, len(s.freq))
	for p := range s.freq {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		a, b := s.freq[paths[i]], s.freq[paths[j]]
		if a.count != b.count {
			return a.count > b.count
		}
		return paths[i] < paths[j]
	})
	return paths
}

// SketchCount returns how many sketch slots are in use.
func (s *TableStats) SketchCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sketches)
}
