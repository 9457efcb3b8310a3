package stats

import (
	"fmt"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/tile"
)

func buildTile(t *testing.T, srcs ...string) *tile.Tile {
	t.Helper()
	docs := make([]*jsontape.Doc, len(srcs))
	for i, s := range srcs {
		docs[i] = new(jsontape.Doc)
		if err := jsontape.Parse([]byte(s), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := tile.DefaultConfig()
	cfg.DetectDates = false
	return tile.NewBuilder(cfg, nil).BuildTape(docs)
}

func TestAddTileAggregates(t *testing.T) {
	s := New(0, 0)
	t1 := buildTile(t, `{"a":1,"b":"x"}`, `{"a":2,"b":"y"}`, `{"a":3}`)
	t2 := buildTile(t, `{"a":4,"c":true}`, `{"a":5,"c":false}`)
	s.AddTile(t1)
	s.AddTile(t2)

	if s.RowCount() != 5 {
		t.Errorf("rows = %d", s.RowCount())
	}
	if got := s.PathCount("a"); got != 5 {
		t.Errorf("PathCount(a) = %d", got)
	}
	if got := s.PathCount("b"); got != 2 {
		t.Errorf("PathCount(b) = %d", got)
	}
	if got := s.PathCount("c"); got != 2 {
		t.Errorf("PathCount(c) = %d", got)
	}
	if !s.HasPathStats("a") || s.HasPathStats("zz") {
		t.Error("HasPathStats wrong")
	}
}

func TestMissingPathUsesMinCounter(t *testing.T) {
	s := New(0, 0)
	s.AddTile(buildTile(t, `{"common":1,"rare":2}`, `{"common":3}`, `{"common":4}`))
	// Paths: common=3, rare=1. A missing path estimates like the
	// smallest tracked counter (the paper's heuristic).
	if got := s.PathCount("never_seen"); got != 1 {
		t.Errorf("missing path estimate = %d, want 1 (min counter)", got)
	}
}

func TestEmptyStatsFallsBackToRowCount(t *testing.T) {
	s := New(0, 0)
	if got := s.PathCount("x"); got != 0 {
		t.Errorf("empty stats PathCount = %d", got)
	}
	if got := s.DistinctCount("x"); got != 1 {
		t.Errorf("empty stats DistinctCount = %f", got)
	}
}

func TestSlotReplacement(t *testing.T) {
	s := New(4, 2) // tiny bounds to force eviction
	for i := 0; i < 10; i++ {
		srcs := []string{}
		for j := 0; j < 4; j++ {
			srcs = append(srcs, fmt.Sprintf(`{"k%d":%d}`, i, j))
		}
		s.AddTile(buildTile(t, srcs...))
	}
	// At most 4 counters survive; the structure must not grow beyond
	// its bounds.
	if got := len(s.TrackedPaths()); got > 4 {
		t.Errorf("%d tracked paths, bound 4", got)
	}
	if s.SketchCount() > 2 {
		t.Errorf("%d sketches, bound 2", s.SketchCount())
	}
	if s.RowCount() != 40 {
		t.Errorf("rows = %d", s.RowCount())
	}
}

func TestDistinctCountFromSketches(t *testing.T) {
	s := New(0, 0)
	var srcs []string
	for i := 0; i < 1024; i++ {
		srcs = append(srcs, fmt.Sprintf(`{"id":%d,"grp":%d}`, i, i%8))
	}
	// Two tiles sharing the value domains: merged sketches must count
	// union distincts, not sums.
	s.AddTile(buildTile(t, srcs[:512]...))
	s.AddTile(buildTile(t, srcs[512:]...))
	if d := s.DistinctCount("id"); d < 900 || d > 1150 {
		t.Errorf("DistinctCount(id) = %f, want ~1024", d)
	}
	if d := s.DistinctCount("grp"); d < 7 || d > 9 {
		t.Errorf("DistinctCount(grp) = %f, want ~8", d)
	}
}

func TestSelectivityEstimates(t *testing.T) {
	s := New(0, 0)
	// Two tiles: "half" fills the first tile entirely (so it is
	// extracted there and gets a sketch) and is absent from the
	// second — 50% presence overall.
	var t1Srcs, t2Srcs []string
	for i := 0; i < 50; i++ {
		t1Srcs = append(t1Srcs, fmt.Sprintf(`{"always":%d,"half":%d}`, i, i%10))
		t2Srcs = append(t2Srcs, fmt.Sprintf(`{"always":%d}`, 50+i))
	}
	s.AddTile(buildTile(t, t1Srcs...))
	s.AddTile(buildTile(t, t2Srcs...))
	if got := s.SelNotNull("always"); got != 1 {
		t.Errorf("SelNotNull(always) = %f", got)
	}
	if got := s.SelNotNull("half"); got != 0.5 {
		t.Errorf("SelNotNull(half) = %f", got)
	}
	// Equality on half: (1/10 distinct) * 0.5 presence = 0.05.
	if got := s.SelEquality("half"); got < 0.03 || got > 0.08 {
		t.Errorf("SelEquality(half) = %f", got)
	}
	if got := s.SelRange("always"); got < 0.2 || got > 0.5 {
		t.Errorf("SelRange = %f", got)
	}
}

func TestTrackedPathsOrdered(t *testing.T) {
	s := New(0, 0)
	s.AddTile(buildTile(t,
		`{"hot":1,"cold":1}`, `{"hot":2}`, `{"hot":3}`))
	paths := s.TrackedPaths()
	if len(paths) < 2 || paths[0] != "hot" {
		t.Errorf("paths = %v", paths)
	}
}

// Marshal → Unmarshal must preserve every estimator the optimizer
// consults: counts, distinct estimates, histograms, and slot bounds.
func TestStatsSerializeRoundTrip(t *testing.T) {
	s := New(8, 4)
	tl := buildTile(t,
		`{"a":1,"b":"x","c":1.5}`,
		`{"a":2,"b":"y","c":2.5}`,
		`{"a":3,"b":"x","c":9.5}`,
	)
	s.AddTile(tl)
	s.AddTile(tl)

	got, err := UnmarshalBinary(s.MarshalBinary())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.RowCount() != s.RowCount() {
		t.Errorf("rows = %d, want %d", got.RowCount(), s.RowCount())
	}
	for _, p := range s.TrackedPaths() {
		if got.PathCount(p) != s.PathCount(p) {
			t.Errorf("PathCount(%s) = %d, want %d", p, got.PathCount(p), s.PathCount(p))
		}
		if got.DistinctCount(p) != s.DistinctCount(p) {
			t.Errorf("DistinctCount(%s) = %g, want %g", p, got.DistinctCount(p), s.DistinctCount(p))
		}
	}
	if g, w := got.SelLess("a", 2.0), s.SelLess("a", 2.0); g != w {
		t.Errorf("SelLess = %g, want %g", g, w)
	}
	if g, w := got.SketchCount(), s.SketchCount(); g != w {
		t.Errorf("SketchCount = %d, want %d", g, w)
	}
	// Re-marshal is byte-identical (sorted, deterministic encoding).
	a, b := s.MarshalBinary(), got.MarshalBinary()
	if len(a) != len(b) {
		t.Fatalf("re-marshal length %d, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-marshal differs at byte %d", i)
		}
	}
}

// Corrupt statistics payloads error instead of panicking.
func TestStatsUnmarshalCorrupt(t *testing.T) {
	s := New(0, 0)
	s.AddTile(buildTile(t, `{"a":1}`, `{"a":2}`))
	buf := s.MarshalBinary()
	for cut := 0; cut < len(buf); cut += 3 {
		if _, err := UnmarshalBinary(buf[:cut]); err == nil {
			// Some prefixes can be self-consistent; decoding them is
			// fine as long as nothing panics.
			continue
		}
	}
	if _, err := UnmarshalBinary(nil); err == nil {
		t.Error("nil input: want error")
	}
}
