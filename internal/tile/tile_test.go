package tile

import (
	"fmt"
	"testing"

	"repro/internal/jsontape"
	"repro/internal/keypath"
)

func docs(t *testing.T, srcs ...string) []*jsontape.Doc {
	t.Helper()
	out := make([]*jsontape.Doc, len(srcs))
	for i, s := range srcs {
		out[i] = new(jsontape.Doc)
		if err := jsontape.Parse([]byte(s), out[i]); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	return out
}

// figure2Tile2 is the paper's running example: tile #2 of Figure 2,
// tile size 4, extraction threshold 60%.
func figure2Tile2(t *testing.T) []*jsontape.Doc {
	return docs(t,
		`{"id":5, "create": "1/10", "text": "b", "user": {"id": 7}, "replies": 3, "geo": {"lat": 1.9}}`,
		`{"id":6, "create": "1/11", "text": "c", "user": {"id": 1}, "replies": 2, "geo": null}`,
		`{"id":7, "create": "1/12", "text": "d", "user": {"id": 3}, "replies": 0, "geo": {"lat": 2.7}}`,
		`{"id":8, "create": "1/13", "text": "x", "user": {"id": 3}, "replies": 1, "geo": {"lat": 3.5}}`,
	)
}

func build(t *testing.T, cfg Config, ds []*jsontape.Doc) *Tile {
	t.Helper()
	return NewBuilder(cfg, nil).BuildTape(ds)
}

func TestPaperFigure2Extraction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 4
	cfg.DetectDates = false // "1/10" is not a real date format
	tl := build(t, cfg, figure2Tile2(t))

	// The paper extracts { id, create, text, user.id, replies, geo.lat }.
	wantPaths := map[string]keypath.ValueType{
		"id":      keypath.TypeBigInt,
		"create":  keypath.TypeString,
		"text":    keypath.TypeString,
		"user.id": keypath.TypeBigInt,
		"replies": keypath.TypeBigInt,
		"geo.lat": keypath.TypeDouble,
	}
	if len(tl.Columns()) != len(wantPaths) {
		var got []string
		for _, c := range tl.Columns() {
			got = append(got, c.Path)
		}
		t.Fatalf("extracted %v, want %v", got, wantPaths)
	}
	for _, c := range tl.Columns() {
		wt, ok := wantPaths[c.Path]
		if !ok {
			t.Errorf("unexpected extracted path %s", c.Path)
			continue
		}
		if c.StorageType != wt {
			t.Errorf("%s storage type %v, want %v", c.Path, c.StorageType, wt)
		}
	}

	// geo.lat has a null for tuple 6 (geo is JSON null there).
	gi := tl.FindColumn("geo.lat", keypath.TypeDouble)
	if gi < 0 {
		t.Fatal("geo.lat not extracted")
	}
	geo := tl.Column(gi).Col
	if !geo.IsNull(1) {
		t.Error("geo.lat row 1 should be null")
	}
	for i, want := range map[int]float64{0: 1.9, 2: 2.7, 3: 3.5} {
		if geo.IsNull(i) || geo.Float(i) != want {
			t.Errorf("geo.lat[%d] = %v (null=%v), want %v", i, geo.Float(i), geo.IsNull(i), want)
		}
	}

	// replies fully populated.
	ri := tl.FindColumn("replies", keypath.TypeBigInt)
	replies := tl.Column(ri).Col
	for i, want := range []int64{3, 2, 0, 1} {
		if replies.IsNull(i) || replies.Int(i) != want {
			t.Errorf("replies[%d] = %d", i, replies.Int(i))
		}
	}
}

func TestPathFrequencies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	tl := build(t, cfg, figure2Tile2(t))
	// replies present non-null in all 4; geo.lat in 3; geo (the object
	// itself) is a leaf only for tuple 6 where it is null -> 0.
	if got := tl.PathFrequency("replies"); got != 4 {
		t.Errorf("freq(replies) = %d", got)
	}
	if got := tl.PathFrequency("geo.lat"); got != 3 {
		t.Errorf("freq(geo.lat) = %d", got)
	}
	if got := tl.PathFrequency("geo"); got != 0 {
		t.Errorf("freq(geo) = %d (null leaves must not count)", got)
	}
	if got := tl.PathFrequency("absent"); got != 0 {
		t.Errorf("freq(absent) = %d", got)
	}
}

func TestMayContainPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	// One outlier doc carries "rare" below the threshold.
	ds := docs(t,
		`{"a":1,"b":1}`, `{"a":2,"b":2}`, `{"a":3,"b":3}`,
		`{"a":4,"b":4,"rare":true}`,
	)
	tl := build(t, cfg, ds)
	if !tl.MayContainPath("a") {
		t.Error("extracted path reported absent")
	}
	if !tl.MayContainPath("rare") {
		t.Error("seen-but-not-extracted path must hit the bloom filter")
	}
	if tl.MayContainPath("never-seen-path-xyz") {
		t.Error("unseen path reported present (bloom false positive is possible but wildly unlikely here)")
	}
}

func TestTypeOutlierFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	// "v" is int in 3 of 4 docs, float in one: ints win, float value
	// stays in binary JSON, column gets a null with HasTypeOutliers.
	ds := docs(t,
		`{"v":1}`, `{"v":2}`, `{"v":3}`, `{"v":2.5}`,
	)
	tl := build(t, cfg, ds)
	vi := tl.FindColumn("v", keypath.TypeBigInt)
	if vi < 0 {
		t.Fatal("v (BigInt) not extracted")
	}
	info := tl.Column(vi)
	if !info.HasTypeOutliers {
		t.Error("HasTypeOutliers not set")
	}
	if !info.Col.IsNull(3) {
		t.Error("outlier row should be null in the column")
	}
	// The value is still reachable through the binary representation.
	d, ok := tl.Raw(3).Get("v")
	if !ok {
		t.Fatal("v missing from JSONB")
	}
	if f, _ := d.Float64(); f != 2.5 {
		t.Errorf("fallback value = %v", f)
	}
}

func TestDateDetection(t *testing.T) {
	cfg := DefaultConfig()
	ds := docs(t,
		`{"created":"2020-06-01 10:00:00","v":1}`,
		`{"created":"2020-06-01 11:30:00","v":2}`,
		`{"created":"2020-06-02 09:15:00","v":3}`,
	)
	tl := build(t, cfg, ds)
	ci := -1
	for i, c := range tl.Columns() {
		if c.Path == "created" {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatal("created not extracted")
	}
	info := tl.Column(ci)
	if info.StorageType != keypath.TypeTimestamp {
		t.Fatalf("storage type %v, want Timestamp", info.StorageType)
	}
	if info.MinedType != keypath.TypeString {
		t.Errorf("mined type %v, want Text", info.MinedType)
	}
	if info.Col.IsNull(0) {
		t.Error("timestamp row 0 null")
	}
	// Chronological order must be preserved by the micros encoding.
	if !(info.Col.Int(0) < info.Col.Int(1) && info.Col.Int(1) < info.Col.Int(2)) {
		t.Error("timestamps not ordered")
	}

	// With detection off, the column stays Text.
	cfg.DetectDates = false
	tl2 := build(t, cfg, ds)
	for _, c := range tl2.Columns() {
		if c.Path == "created" && c.StorageType != keypath.TypeString {
			t.Errorf("no-Date ablation still extracted %v", c.StorageType)
		}
	}
}

func TestNonDateStringsStayText(t *testing.T) {
	cfg := DefaultConfig()
	ds := docs(t,
		`{"name":"alice"}`, `{"name":"bob"}`, `{"name":"carol"}`,
	)
	tl := build(t, cfg, ds)
	for _, c := range tl.Columns() {
		if c.Path == "name" && c.StorageType != keypath.TypeString {
			t.Errorf("name stored as %v", c.StorageType)
		}
	}
}

func TestNullTypedItemsNotMaterialized(t *testing.T) {
	cfg := DefaultConfig()
	ds := docs(t, `{"g":null}`, `{"g":null}`, `{"g":null}`)
	tl := build(t, cfg, ds)
	if n := len(tl.Columns()); n != 0 {
		t.Errorf("%d columns extracted from all-null key", n)
	}
	// But the path must be in the header for skip correctness.
	if !tl.MayContainPath("g") {
		t.Error("null-only path missing from header")
	}
}

func TestHeterogeneousBelowThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	// Five distinct structures, each 20%: nothing reaches 60%.
	ds := docs(t,
		`{"a":1}`, `{"b":1}`, `{"c":1}`, `{"d":1}`, `{"e":1}`,
	)
	tl := build(t, cfg, ds)
	if len(tl.Columns()) != 0 {
		t.Errorf("extracted %d columns from fully heterogeneous tile", len(tl.Columns()))
	}
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		if !tl.MayContainPath(p) {
			t.Errorf("path %s lost", p)
		}
	}
}

func TestSketchDistinctCounts(t *testing.T) {
	cfg := DefaultConfig()
	var srcs []string
	for i := 0; i < 256; i++ {
		srcs = append(srcs, fmt.Sprintf(`{"k":%d,"c":%d}`, i, i%4))
	}
	tl := build(t, cfg, docs(t, srcs...))
	if s := tl.Sketch("k"); s == nil || s.Estimate() < 200 || s.Estimate() > 300 {
		t.Errorf("k distinct estimate: %v", s.Estimate())
	}
	if s := tl.Sketch("c"); s == nil || s.Estimate() < 3 || s.Estimate() > 5 {
		t.Errorf("c distinct estimate: %v", s.Estimate())
	}
	if tl.Sketch("missing") != nil {
		t.Error("sketch for missing path")
	}
}

func TestUpdate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	ds := docs(t, `{"a":1,"b":1.5}`, `{"a":2,"b":2.5}`, `{"a":3,"b":3.5}`)
	tl := build(t, cfg, ds)

	outlier := tl.Update(1, docs(t, `{"a":42,"newkey":"x"}`)[0], 0)
	if outlier {
		t.Error("doc sharing `a` flagged as outlier")
	}

	ai := tl.FindColumn("a", keypath.TypeBigInt)
	if tl.Column(ai).Col.Int(1) != 42 {
		t.Errorf("a[1] = %d after update", tl.Column(ai).Col.Int(1))
	}
	bi := tl.FindColumn("b", keypath.TypeDouble)
	if !tl.Column(bi).Col.IsNull(1) {
		t.Error("b[1] should be null after update (key removed)")
	}
	// New key path must be visible to MayContainPath.
	if !tl.MayContainPath("newkey") {
		t.Error("newkey not added to header filter")
	}
	// Raw JSONB replaced.
	if v, ok := tl.Raw(1).Get("newkey"); !ok {
		t.Error("newkey missing from JSONB")
	} else if s, _ := v.String(); s != "x" {
		t.Errorf("newkey = %q", s)
	}
	// A container at an extracted path is no leaf: its NULL must fall
	// back to the document.
	if tl.Column(ai).HasTypeOutliers {
		t.Fatal("a flagged before any container")
	}
	tl.Update(2, docs(t, `{"a":{"x":1},"b":3.5}`)[0], 0)
	if !tl.Column(ai).Col.IsNull(2) || !tl.Column(ai).HasTypeOutliers {
		t.Error("container at a: want a NULL cell in a column flagged for outliers")
	}
}

func TestUpdateOutlierTriggersRecompute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	ds := docs(t, `{"a":1}`, `{"a":2}`, `{"a":3}`, `{"a":4}`)
	tl := build(t, cfg, ds)
	if tl.NeedsRecompute() {
		t.Fatal("fresh tile needs recompute")
	}
	for i := 0; i < 3; i++ {
		if !tl.Update(i, docs(t, `{"z":true}`)[0], 0) {
			t.Fatalf("update %d not flagged outlier", i)
		}
	}
	if tl.OutlierCount() != 3 {
		t.Errorf("outliers = %d", tl.OutlierCount())
	}
	if !tl.NeedsRecompute() {
		t.Error("3/4 outliers should trigger recompute")
	}
}

func TestMinSupport(t *testing.T) {
	cfg := DefaultConfig() // Threshold 0.6
	tests := []struct{ n, want int }{
		{4, 3}, {1024, 615}, {0, 1}, {1, 1},
	}
	for _, tt := range tests {
		if got := cfg.MinSupport(tt.n); got != tt.want {
			t.Errorf("MinSupport(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestMetricsAccumulate(t *testing.T) {
	var m Metrics
	b := NewBuilder(DefaultConfig(), &m)
	b.BuildTape(figure2Tile2(t))
	if m.TilesBuilt.Load() != 1 {
		t.Errorf("tiles built = %d", m.TilesBuilt.Load())
	}
	if m.MineNanos.Load() <= 0 || m.ExtractNanos.Load() <= 0 || m.WriteJSONBNanos.Load() <= 0 {
		t.Error("timers did not accumulate")
	}
}

func TestStorageAccounting(t *testing.T) {
	cfg := DefaultConfig()
	var srcs []string
	for i := 0; i < 512; i++ {
		srcs = append(srcs, fmt.Sprintf(`{"k":%d,"s":"constant-value"}`, i%10))
	}
	tl := build(t, cfg, docs(t, srcs...))
	raw := tl.RawSizeBytes()
	cols := tl.ColumnSizeBytes()
	comp := tl.ColumnCompressedSizeBytes()
	if raw <= 0 || cols <= 0 || comp <= 0 {
		t.Fatalf("sizes: raw=%d cols=%d comp=%d", raw, cols, comp)
	}
	if comp >= cols {
		t.Errorf("LZ4 did not shrink repetitive columns: %d -> %d", cols, comp)
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	cfg := DefaultConfig()
	tl := build(t, cfg, nil)
	if tl.NumRows() != 0 {
		t.Error("empty build")
	}
	tl2 := build(t, cfg, docs(t, `{"a":1}`))
	if tl2.NumRows() != 1 {
		t.Error("single build")
	}
	// With one doc, its structure is 100% frequent.
	if tl2.FindColumn("a", keypath.TypeBigInt) < 0 {
		t.Error("single-doc tile did not extract")
	}
}

func TestArrayLeadingElements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDates = false
	// All docs share 2 leading elements; one has a third (below 60%).
	ds := docs(t,
		`{"tags":["a","b"]}`,
		`{"tags":["c","d","e"]}`,
		`{"tags":["f","g"]}`,
	)
	tl := build(t, cfg, ds)
	if tl.FindColumn("tags[0]", keypath.TypeString) < 0 {
		t.Error("tags[0] not extracted")
	}
	if tl.FindColumn("tags[1]", keypath.TypeString) < 0 {
		t.Error("tags[1] not extracted")
	}
	if tl.FindColumn("tags[2]", keypath.TypeString) >= 0 {
		t.Error("tags[2] extracted despite 33% frequency")
	}
	if !tl.MayContainPath("tags[2]") {
		t.Error("tags[2] lost from header")
	}
}
