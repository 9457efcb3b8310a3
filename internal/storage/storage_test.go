package storage

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/jsontext"
	"repro/internal/keypath"
	"repro/internal/obs"
)

func lines(srcs ...string) [][]byte {
	out := make([][]byte, len(srcs))
	for i, s := range srcs {
		out[i] = []byte(s)
	}
	return out
}

func allKinds() []FormatKind {
	return []FormatKind{KindJSON, KindJSONB, KindSinew, KindTiles, KindShredded}
}

func loadAll(t *testing.T, data [][]byte) map[FormatKind]Relation {
	t.Helper()
	out := map[FormatKind]Relation{}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 4
	cfg.Tile.DetectDates = false
	for _, k := range allKinds() {
		l, err := NewLoader(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := l.Load(string(k), data, 2)
		if err != nil {
			t.Fatalf("%s load: %v", k, err)
		}
		out[k] = rel
	}
	return out
}

// collectScan materializes a scan's output rows as strings, sorted.
func collectScan(rel Relation, accesses []Access, workers int) []string {
	return collectScanStats(rel, accesses, workers, nil)
}

// collectScanStats is collectScan recording the scan's statistics into
// st.
func collectScanStats(rel Relation, accesses []Access, workers int, st *obs.ScanStats) []string {
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	var rows []string
	scanRows(context.Background(), rel, accesses, workers, func(w int, row []expr.Value) {
		var s string
		for i, v := range row {
			if i > 0 {
				s += "|"
			}
			s += v.String()
		}
		<-mu
		rows = append(rows, s)
		mu <- struct{}{}
	}, st)
	sortStrings(rows)
	return rows
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

var twitterDocs = lines(
	`{"id":1, "create": "3/06", "text": "a", "user": {"id": 1}}`,
	`{"id":2, "create": "3/07", "text": "b", "user": {"id": 3}}`,
	`{"id":3, "create": "6/07", "text": "c", "user": {"id": 5}}`,
	`{"id":4, "create": "1/08", "text": "a", "user": {"id": 1}, "replies": 9}`,
	`{"id":5, "create": "1/10", "text": "b", "user": {"id": 7}, "replies": 3, "geo": {"lat": 1.9}}`,
	`{"id":6, "create": "1/11", "text": "c", "user": {"id": 1}, "replies": 2, "geo": null}`,
	`{"id":7, "create": "1/12", "text": "d", "user": {"id": 3}, "replies": 0, "geo": {"lat": 2.7}}`,
	`{"id":8, "create": "1/13", "text": "x", "user": {"id": 3}, "replies": 1, "geo": {"lat": 3.5}}`,
)

func TestAllFormatsAgreeOnFigure2(t *testing.T) {
	rels := loadAll(t, twitterDocs)
	accesses := []Access{
		NewAccess(expr.TBigInt, "id"),
		NewAccess(expr.TText, "create"),
		NewAccess(expr.TBigInt, "user", "id"),
		NewAccess(expr.TBigInt, "replies"),
		NewAccess(expr.TFloat, "geo", "lat"),
	}
	var want []string
	for kind, rel := range rels {
		if rel.NumRows() != 8 {
			t.Fatalf("%s: %d rows", kind, rel.NumRows())
		}
		got := collectScan(rel, accesses, 1)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s scan differs:\n got %v\nwant %v", kind, got, want)
		}
	}
	// Spot-check one row against ground truth.
	found := false
	for _, r := range want {
		if r == "5|1/10|7|3|1.9" {
			found = true
		}
	}
	if !found {
		t.Errorf("row for id=5 missing: %v", want)
	}
}

func TestAllFormatsAgreeParallel(t *testing.T) {
	rels := loadAll(t, twitterDocs)
	accesses := []Access{NewAccess(expr.TBigInt, "id")}
	want := collectScan(rels[KindJSON], accesses, 1)
	for kind, rel := range rels {
		for _, workers := range []int{1, 2, 4} {
			got := collectScan(rel, accesses, workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d differs", kind, workers)
			}
		}
	}
}

func TestHeterogeneousTypesAcrossFormats(t *testing.T) {
	data := lines(
		`{"v":1}`, `{"v":2}`, `{"v":3}`, `{"v":2.5}`,
		`{"v":"txt"}`, `{"v":null}`, `{"w":1}`,
	)
	rels := loadAll(t, data)
	accesses := []Access{
		NewAccess(expr.TFloat, "v"),
		NewAccess(expr.TText, "v"),
	}
	var want []string
	for kind, rel := range rels {
		got := collectScan(rel, accesses, 1)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs:\n got %v\nwant %v", kind, got, want)
		}
	}
	// Outlier float must be readable everywhere.
	has := false
	for _, r := range want {
		if r == "2.5|2.5" {
			has = true
		}
	}
	if !has {
		t.Errorf("outlier float lost: %v", want)
	}
}

func TestNumericStringsServeTypedAccess(t *testing.T) {
	data := lines(
		`{"price":"19.99"}`, `{"price":"5.00"}`, `{"price":"100.10"}`,
	)
	rels := loadAll(t, data)
	accesses := []Access{
		NewAccess(expr.TFloat, "price"),
		NewAccess(expr.TText, "price"),
	}
	for kind, rel := range rels {
		rows := collectScan(rel, accesses, 1)
		if rows[0] != "100.1|100.10" {
			t.Errorf("%s: rows = %v", kind, rows)
		}
	}
}

func TestDateAccessAcrossFormats(t *testing.T) {
	data := lines(
		`{"d":"2020-06-01 10:00:00"}`,
		`{"d":"2020-06-02 11:00:00"}`,
		`{"d":"2020-06-03 12:00:00"}`,
	)
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 4
	accesses := []Access{NewAccess(expr.TTimestamp, "d")}
	var want []string
	for _, k := range allKinds() {
		l, _ := NewLoader(k, cfg)
		rel, err := l.Load(string(k), data, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := collectScan(rel, accesses, 1)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s timestamp scan differs: %v vs %v", k, got, want)
		}
	}
	if want[0] != "2020-06-01 10:00:00" {
		t.Errorf("timestamp = %v", want)
	}
}

func TestTimestampColumnNeverServesText(t *testing.T) {
	// Date detection stores timestamps; a ->> text access must return
	// the exact original string, via the binary JSON (§4.9).
	data := lines(
		`{"d":"2020-06-01T10:00:00Z"}`,
		`{"d":"2020-06-02T11:00:00Z"}`,
	)
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 4
	l, _ := NewLoader(KindTiles, cfg)
	rel, err := l.Load("t", data, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectScan(rel, []Access{NewAccess(expr.TText, "d")}, 1)
	if rows[0] != "2020-06-01T10:00:00Z" {
		t.Errorf("text access returned %q, want the original string", rows[0])
	}
}

func TestTileSkipping(t *testing.T) {
	// Two structure clusters; a null-rejecting access to a path that
	// exists only in one cluster must not change results, only work.
	var data [][]byte
	for i := 0; i < 8; i++ {
		data = append(data, []byte(fmt.Sprintf(`{"a":%d}`, i)))
	}
	for i := 0; i < 8; i++ {
		data = append(data, []byte(fmt.Sprintf(`{"b":%d}`, i)))
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 8
	cfg.Tile.PartitionSize = 1
	cfg.Reorder = false

	for _, skip := range []bool{true, false} {
		cfg.SkipTiles = skip
		l, _ := NewLoader(KindTiles, cfg)
		rel, err := l.Load("t", data, 1)
		if err != nil {
			t.Fatal(err)
		}
		acc := []Access{NewAccess(expr.TBigInt, "b")}
		acc[0].NullRejecting = true
		var st obs.ScanStats
		rows := collectScanStats(rel, acc, 1, &st)
		// With skipping the first tile is not scanned at all; without,
		// it is scanned, and its rows, NULL in the null-rejecting
		// access, are narrowed away. Either way only the 8 "b" rows
		// come out.
		for _, r := range rows {
			if r == "NULL" {
				t.Errorf("skip=%v: a NULL row survived the null-rejecting access", skip)
			}
		}
		if len(rows) != 8 {
			t.Errorf("skip=%v: %d rows emitted, want 8", skip, len(rows))
		}
		scanned, skipped := st.TilesScanned.Load(), st.TilesSkipped.Load()
		if skip && (scanned != 1 || skipped != 1) {
			t.Errorf("skipping did not skip: %d tiles scanned, %d skipped", scanned, skipped)
		}
		if !skip && (scanned != 2 || skipped != 0) {
			t.Errorf("no-skip: %d tiles scanned, %d skipped", scanned, skipped)
		}
	}
}

// TestNarrowingResolvesLiveRowsOnly pins that narrowing engages: in a
// tile mixing two document shapes, a flagged typed access is NULL on k
// of n rows, so a boxed access resolves only the n−k live rows from
// binary JSON, and all n when the flag is off.
func TestNarrowingResolvesLiveRowsOnly(t *testing.T) {
	const n, k = 32, 8
	var data [][]byte
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"a":%d,"o":{"x":%d}}`, i, i)
		if i%(n/k) == 0 {
			doc = fmt.Sprintf(`{"b":"v%d","o":{"y":%d}}`, i, i)
		}
		data = append(data, []byte(doc))
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = n
	cfg.Reorder = false
	l, _ := NewLoader(KindTiles, cfg)
	rel, err := l.Load("t", data, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccess(expr.TBigInt, "a")
	tiles := rel.(TileIntrospector).Tiles()
	if len(tiles) != 1 || len(tiles[0].ColumnsForPath(a.PathEnc)) != 1 {
		t.Fatalf("want one tile with one column for a, got %d tiles", len(tiles))
	}
	for _, flagged := range []bool{true, false} {
		a.NullRejecting = flagged
		var st obs.ScanStats
		rows := collectScanStats(rel, []Access{a, NewAccess(expr.TJSON, "o")}, 1, &st)
		want := n
		if flagged {
			want = n - k
		}
		if got := st.JSONBFallbacks.Load(); got != int64(want) {
			t.Errorf("flagged=%v: %d jsonb_fallbacks, want %d", flagged, got, want)
		}
		if len(rows) != want {
			t.Errorf("flagged=%v: %d rows, want %d", flagged, len(rows), want)
		}
	}
}

// TestConjunctNarrowingResolvesLiveRowsOnly pins that an access's
// Filter narrows before any fallback cell is read: over a column that
// every row of the tile has, `a IS NULL` leaves no row, so the two
// document-served accesses (a JSON read and the text read of a path
// mined as a timestamp, §4.9) resolve nothing, and `a < k` leaves k
// rows, so they resolve k cells each. Every format applies the Filter:
// each returns the same rows and narrows the same count, in batches.
func TestConjunctNarrowingResolvesLiveRowsOnly(t *testing.T) {
	const n, k = 32, 5
	var data [][]byte
	for i := 0; i < n; i++ {
		data = append(data, []byte(fmt.Sprintf(`{"a":%d,"d":"2020-01-%02d 10:00:00","o":{"x":%d}}`, i, 1+i%28, i)))
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = n
	cfg.Reorder = false
	rels := map[FormatKind]Relation{}
	for _, kind := range allKinds() {
		l, _ := NewLoader(kind, cfg)
		rel, err := l.Load("t", data, 1)
		if err != nil {
			t.Fatal(err)
		}
		rels[kind] = rel
	}
	a := NewAccess(expr.TBigInt, "a")
	tl := rels[KindTiles].(TileIntrospector).Tiles()[0]
	if cols := tl.ColumnsForPath(a.PathEnc); len(cols) != 1 || tl.Column(cols[0]).Col.NullBits() != nil {
		t.Fatal("want one null-free column for a")
	}
	if cols := tl.ColumnsForPath("d"); len(cols) != 1 || tl.Column(cols[0]).StorageType != keypath.TypeTimestamp {
		t.Fatal("want d mined as a timestamp")
	}
	aCol := expr.NewCol(0, expr.TBigInt)
	for _, c := range []struct {
		name   string
		filter expr.Expr
		rows   int
	}{
		{"none", nil, n},
		{"a IS NULL", expr.NewIsNull(aCol, false), 0},
		{"a < k", expr.NewCmp(expr.LT, aCol, expr.NewConst(expr.IntValue(k))), k},
	} {
		a.Filter = c.filter
		rows := map[FormatKind][]string{}
		for _, kind := range allKinds() {
			var st obs.ScanStats
			rows[kind] = collectScanStats(rels[kind], []Access{a, NewAccess(expr.TText, "d"), NewAccess(expr.TJSON, "o")}, 1, &st)
			if len(rows[kind]) != c.rows {
				t.Errorf("%s, %s: %d rows, want %d", kind, c.name, len(rows[kind]), c.rows)
			}
			if got := st.JSONBFallbacks.Load(); kind == KindTiles && got != int64(2*c.rows) {
				t.Errorf("%s: %d jsonb_fallbacks, want %d", c.name, got, 2*c.rows)
			}
			if got := st.RowsNarrowed.Load(); got != int64(n-c.rows) {
				t.Errorf("%s, %s: %d rows narrowed, want %d", kind, c.name, got, n-c.rows)
			}
			if c.rows > 0 && st.Batches.Load() == 0 {
				t.Errorf("%s, %s: no batch counted", kind, c.name)
			}
		}
		for kind, got := range rows {
			if !reflect.DeepEqual(got, rows[KindTiles]) {
				t.Errorf("%s, %s: rows %q, Tiles returns %q", kind, c.name, got, rows[KindTiles])
			}
		}
	}
}

// TestNumericStringReadsAsFloatExactly: binary JSON stores "19.99" as
// the decimal (1999, 2); read as a float it must be the float nearest
// 19.99, as parsing the text gives, not 1999 / 10 / 10.
func TestNumericStringReadsAsFloatExactly(t *testing.T) {
	l, _ := NewLoader(KindJSONB, DefaultLoaderConfig())
	rel, err := l.Load("j", lines(`{"p":"19.99"}`, `{"p":"-0.001"}`, `{"p":"100.00"}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(rel, []Access{NewAccess(expr.TFloat, "p")}, 1)
	if want := []string{"-0.001", "100", "19.99"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSinewGlobalExtraction(t *testing.T) {
	// "a" in 100%, "b" in 75%, "c" in 25%: threshold 60% extracts a, b.
	data := lines(
		`{"a":1,"b":1}`, `{"a":2,"b":2}`, `{"a":3,"b":3,"c":3}`, `{"a":4}`,
	)
	cfg := DefaultLoaderConfig()
	l, _ := NewLoader(KindSinew, cfg)
	rel, err := l.Load("s", data, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := rel.(*sinew)
	got := s.ExtractedPaths()
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("extracted %v", got)
	}
	// "c" still accessible via fallback.
	rows := collectScan(rel, []Access{NewAccess(expr.TBigInt, "c")}, 1)
	if !reflect.DeepEqual(rows, []string{"3", "NULL", "NULL", "NULL"}) {
		t.Errorf("c rows = %v", rows)
	}
}

func TestShreddedColumnExplosionAndReassembly(t *testing.T) {
	data := lines(
		`{"id":1,"tags":[{"t":"a"},{"t":"b"}]}`,
		`{"id":2,"tags":[{"t":"c"}]}`,
		`{"id":3,"nested":{"x":{"y":5}}}`,
	)
	cfg := DefaultLoaderConfig()
	l, _ := NewLoader(KindShredded, cfg)
	rel, err := l.Load("sh", data, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := rel.(*shredded)
	// Columns: id, tags[0]t, tags[1]t, nested.x.y = 4.
	if sh.NumColumns() != 4 {
		t.Errorf("%d columns", sh.NumColumns())
	}
	// Deep access works.
	rows := collectScan(rel, []Access{NewAccess(expr.TBigInt, "nested", "x", "y")}, 1)
	if !reflect.DeepEqual(rows, []string{"5", "NULL", "NULL"}) {
		t.Errorf("nested rows = %v", rows)
	}
	// Reassembly rebuilds the document.
	doc := sh.Reassemble(0)
	if got := doc.Get("id"); got.IntVal() != 1 {
		t.Errorf("reassembled id = %#v", got)
	}
	tags := doc.Get("tags")
	if tags.Len() != 2 || tags.Elem(1).Get("t").StringVal() != "b" {
		t.Errorf("reassembled tags = %#v", tags)
	}
}

// TestShreddedReassemblesNullKeys: a null-valued key is a presence-only
// stripe, so reassembly renders it where raw JSON does.
func TestShreddedReassemblesNullKeys(t *testing.T) {
	l, _ := NewLoader(KindShredded, DefaultLoaderConfig())
	rel, err := l.Load("sh", lines(`{"a":null,"b":{"c":null,"d":1}}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := jsontext.SerializeString(rel.(*shredded).Reassemble(0)); got != `{"a":null,"b":{"c":null,"d":1}}` {
		t.Errorf("reassembled %s", got)
	}
	rows := collectScan(rel, []Access{NewAccess(expr.TText, "b")}, 1)
	if !reflect.DeepEqual(rows, []string{`{"c":null,"d":1}`}) {
		t.Errorf("b rows = %v", rows)
	}
}

func TestTilesStatsPopulated(t *testing.T) {
	rels := loadAll(t, twitterDocs)
	st := rels[KindTiles].Stats()
	if st == nil {
		t.Fatal("tiles relation has no stats")
	}
	if st.RowCount() != 8 {
		t.Errorf("row count %d", st.RowCount())
	}
	if got := st.PathCount("replies"); got != 5 {
		t.Errorf("PathCount(replies) = %d, want 5", got)
	}
	if got := st.PathCount("id"); got != 8 {
		t.Errorf("PathCount(id) = %d", got)
	}
	// Other formats keep none.
	for _, k := range []FormatKind{KindJSON, KindJSONB, KindSinew, KindShredded} {
		if rels[k].Stats() != nil {
			t.Errorf("%s unexpectedly has stats", k)
		}
	}
}

func TestJSONAccessOperator(t *testing.T) {
	// -> (TJSON) must return documents on every format.
	data := lines(`{"user":{"id":7,"name":"bo"}}`)
	rels := loadAll(t, data)
	for kind, rel := range rels {
		var got string
		scanRows(context.Background(), rel, []Access{NewAccess(expr.TJSON, "user")}, 1, func(w int, row []expr.Value) {
			got = row[0].String()
		}, nil)
		if got != `{"id":7,"name":"bo"}` {
			t.Errorf("%s -> returned %s", kind, got)
		}
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	data := lines(`{"a":1}`, `{bad`)
	for _, k := range allKinds() {
		l, _ := NewLoader(k, DefaultLoaderConfig())
		if _, err := l.Load("x", data, 2); err == nil {
			t.Errorf("%s accepted malformed input", k)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	rels := loadAll(t, twitterDocs)
	for kind, rel := range rels {
		if rel.SizeBytes() <= 0 {
			t.Errorf("%s SizeBytes = %d", kind, rel.SizeBytes())
		}
	}
	tr := rels[KindTiles].(*tilesRelation)
	if tr.ColumnSizeBytes() <= 0 || tr.RawSizeBytes() <= 0 {
		t.Error("tiles size accounting broken")
	}
	if tr.CompressedColumnSizeBytes() <= 0 {
		t.Error("compressed size zero")
	}
}

func TestArraySlotAccess(t *testing.T) {
	data := lines(
		`{"tags":["x","y","z"]}`,
		`{"tags":["p"]}`,
	)
	rels := loadAll(t, data)
	acc := []Access{
		NewAccessPath(expr.TText, keypath.NewPath("tags").Slot(0)),
		NewAccessPath(expr.TText, keypath.NewPath("tags").Slot(2)),
	}
	want := []string{"p|NULL", "x|z"}
	for kind, rel := range rels {
		got := collectScan(rel, acc, 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v", kind, got)
		}
	}
}
