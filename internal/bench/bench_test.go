package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every experiment at a tiny scale —
// the end-to-end guarantee that `jtbench all` works.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs every experiment")
	}
	ctx := NewContext(Options{Scale: 0.001, Workers: 2, Repeats: 1})
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, ctx); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			// Every table prints at least a header and one data row.
			if lines := strings.Count(buf.String(), "\n"); lines < 2 {
				t.Errorf("%s output too short:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("tab1"); !ok {
		t.Error("tab1 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if len(ids) != 20 {
		t.Errorf("%d experiments, want 20 (every table and figure of §6)", len(ids))
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean(nil); g != 0 {
		t.Errorf("empty geo-mean = %f", g)
	}
}

func TestContextCaching(t *testing.T) {
	ctx := NewContext(Options{Scale: 0.001, Workers: 1, Repeats: 1})
	a := ctx.tpchLines()
	b := ctx.tpchLines()
	if &a[0] != &b[0] {
		t.Error("lines not cached")
	}
	r1 := ctx.tpchRel("Tiles")
	r2 := ctx.tpchRel("Tiles")
	if r1 != r2 {
		t.Error("relation not cached")
	}
}
