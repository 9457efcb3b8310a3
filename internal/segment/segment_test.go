package segment

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/stats"
	"repro/internal/tile"
)

func buildTile(t testing.TB, srcs ...string) *tile.Tile {
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

// testSeg names the standard test segment object.
const testSeg = "test.seg"

// writeTestSegment writes the standard two-tile test segment (see
// writeStoreSegment) to a fresh in-memory store.
func writeTestSegment(t testing.TB) (blockstore.Store, []*tile.Tile, *stats.TableStats) {
	t.Helper()
	store := blockstore.NewMem()
	tiles, st := writeStoreSegment(t, store, testSeg)
	return store, tiles, st
}

// putSegment writes one segment of the given tiles to a fresh
// in-memory store under testSeg.
func putSegment(t testing.TB, tiles ...*tile.Tile) blockstore.Store {
	t.Helper()
	st := stats.New(0, 0)
	for _, tl := range tiles {
		st.AddTile(tl)
	}
	store := blockstore.NewMem()
	if _, err := WriteStore(store, testSeg, tiles, st); err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	return store
}

func TestRoundTrip(t *testing.T) {
	store, tiles, st := writeTestSegment(t)
	pool := bufpool.New(bufpool.DefaultCapacity)
	r, err := OpenStore(store, testSeg, pool)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer r.Close()

	if r.NumTiles() != len(tiles) {
		t.Fatalf("NumTiles = %d, want %d", r.NumTiles(), len(tiles))
	}
	if r.NumRows() != 128 {
		t.Errorf("NumRows = %d, want 128", r.NumRows())
	}
	rst, err := r.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if rst.RowCount() != st.RowCount() {
		t.Errorf("stats rows = %d, want %d", rst.RowCount(), st.RowCount())
	}

	for ti, src := range tiles {
		tm := r.Tile(ti)
		if tm.Rows != src.NumRows() {
			t.Errorf("tile %d rows = %d, want %d", ti, tm.Rows, src.NumRows())
		}
		cols := src.Columns()
		if len(tm.Columns) != len(cols) {
			t.Fatalf("tile %d: %d columns, want %d", ti, len(tm.Columns), len(cols))
		}
		for ci := range cols {
			want := &cols[ci]
			cm := &tm.Columns[ci]
			if cm.Path != want.Path || cm.StorageType != want.StorageType ||
				cm.MinedType != want.MinedType || cm.HasTypeOutliers != want.HasTypeOutliers {
				t.Errorf("tile %d col %d meta = %+v, want %q", ti, ci, cm, want.Path)
			}
			got, _, err := r.Column(ti, ci)
			if err != nil {
				t.Fatalf("Column(%d,%d): %v", ti, ci, err)
			}
			if got.Len() != want.Col.Len() || got.Type() != want.Col.Type() {
				t.Fatalf("tile %d col %q shape mismatch", ti, want.Path)
			}
			for row := 0; row < got.Len(); row++ {
				if got.IsNull(row) != want.Col.IsNull(row) {
					t.Fatalf("tile %d col %q row %d null mismatch", ti, want.Path, row)
				}
				if got.IsNull(row) {
					continue
				}
				switch got.Type() {
				case keypath.TypeBigInt, keypath.TypeTimestamp:
					if got.Int(row) != want.Col.Int(row) {
						t.Fatalf("tile %d col %q row %d int mismatch", ti, want.Path, row)
					}
				case keypath.TypeDouble:
					if got.Float(row) != want.Col.Float(row) {
						t.Fatalf("tile %d col %q row %d float mismatch", ti, want.Path, row)
					}
				case keypath.TypeString:
					if string(got.StrAt(row)) != string(want.Col.StrAt(row)) {
						t.Fatalf("tile %d col %q row %d string mismatch", ti, want.Path, row)
					}
				case keypath.TypeBool:
					if got.Bool(row) != want.Col.Bool(row) {
						t.Fatalf("tile %d col %q row %d bool mismatch", ti, want.Path, row)
					}
				}
			}
		}
		docs, _, err := r.Docs(ti)
		if err != nil {
			t.Fatalf("Docs(%d): %v", ti, err)
		}
		if len(docs) != src.NumRows() {
			t.Fatalf("tile %d: %d docs, want %d", ti, len(docs), src.NumRows())
		}
		for row := range docs {
			if string(docs[row]) != string(src.RawBytes(row)) {
				t.Fatalf("tile %d doc %d differs from source", ti, row)
			}
		}
	}
}

// buildDictTile builds one tile whose "level" column has few distinct
// values, so default extraction dictionary-encodes it.
func buildDictTile(t testing.TB, rows int) *tile.Tile {
	t.Helper()
	levels := []string{"debug", "error", "info", "warn"}
	srcs := make([]string, 0, rows)
	for i := 0; i < rows; i++ {
		if i%7 == 3 {
			srcs = append(srcs, fmt.Sprintf(`{"id":%d}`, i)) // level NULL
			continue
		}
		srcs = append(srcs, fmt.Sprintf(`{"id":%d,"level":"%s"}`, i, levels[i%len(levels)]))
	}
	return buildTile(t, srcs...)
}

func TestDictColumnRoundTrip(t *testing.T) {
	tl := buildDictTile(t, 200)
	r, err := OpenStore(putSegment(t, tl), testSeg, bufpool.New(bufpool.DefaultCapacity))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	tm := r.Tile(0)
	dictIdx := -1
	for ci := range tm.Columns {
		if tm.Columns[ci].Path == "level" {
			dictIdx = ci
		}
	}
	if dictIdx < 0 {
		t.Fatal("column level not extracted")
	}
	cm := &tm.Columns[dictIdx]
	if !cm.HasDict {
		t.Fatal("level column not dictionary-encoded in footer")
	}

	// A dictionary column costs two block reads (codes + dict).
	got, c, err := r.Column(0, dictIdx)
	if err != nil {
		t.Fatal(err)
	}
	if c.PoolMisses != 2 {
		t.Errorf("dict column read missed %d blocks, want 2", c.PoolMisses)
	}
	if !got.Dict {
		t.Error("deserialized column lost its dictionary")
	}
	want := tl.Column(dictIdx).Col
	for row := 0; row < want.Len(); row++ {
		if got.IsNull(row) != want.IsNull(row) {
			t.Fatalf("row %d null mismatch", row)
		}
		if !got.IsNull(row) && string(got.StrAt(row)) != string(want.StrAt(row)) {
			t.Fatalf("row %d = %q, want %q", row, got.StrAt(row), want.StrAt(row))
		}
	}
}

// TestRejectLegacyMagic: a JTSEG001 header (the pre-dictionary
// layout), a JTSEG002 one (tile metadata with zone maps) or a JTSEG003
// one (whole documents in one block per tile), none read any more, is
// an ordinary bad-magic corruption that names the object and the magic
// it found.
func TestRejectLegacyMagic(t *testing.T) {
	store, _, _ := writeTestSegment(t)
	data, err := blockstore.ReadAll(store, testSeg)
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"JTSEG001", "JTSEG002", "JTSEG003"} {
		legacy := append([]byte(magic), data[len(Magic):]...)
		name := strings.ToLower(magic) + ".seg"
		store.Put(name, legacy)
		_, err = OpenStore(store, name, nil)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), name) {
			t.Errorf("OpenStore of a %s header = %v, want ErrCorrupt naming %s and the magic", magic, err, name)
		}
	}
}

func TestMayContainPathMatchesSource(t *testing.T) {
	store, tiles, _ := writeTestSegment(t)
	r, err := OpenStore(store, testSeg, bufpool.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The footer's skip decision must never be falsely negative
	// relative to the in-memory tile; probe extracted paths, seen
	// paths, prefixes, and absent paths.
	probes := []string{"id", "price", "name", "active", "score",
		keypath.NewPath("user", "id").Encode(),
		keypath.NewPath("user").Encode(), "extra_3", "definitely_absent"}
	for ti, src := range tiles {
		tm := r.Tile(ti)
		for _, p := range probes {
			if src.MayContainPath(p) && !tm.MayContainPath(p) {
				t.Errorf("tile %d path %q: source says may-contain, footer says skip", ti, p)
			}
		}
	}
}

func TestBufpoolIntegration(t *testing.T) {
	store, _, _ := writeTestSegment(t)
	pool := bufpool.New(bufpool.DefaultCapacity)
	r, err := OpenStore(store, testSeg, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	_, c1, err := r.Column(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1.PoolHits != 0 || c1.PoolMisses == 0 || c1.StoreBytesRead == 0 {
		t.Errorf("cold read: counts = %+v, want misses with bytes", c1)
	}
	_, c2, err := r.Column(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.PoolHits == 0 || c2.PoolMisses != 0 || c2.StoreBytesRead != 0 {
		t.Errorf("warm read: counts = %+v, want hits with 0 bytes", c2)
	}
	// Closing drops this file's blocks from the shared pool.
	r.Close()
	if st := pool.Stats(); st.Resident != 0 {
		t.Errorf("resident after Close = %d, want 0", st.Resident)
	}
}

func TestOpenNilPool(t *testing.T) {
	store, _, _ := writeTestSegment(t)
	r, err := OpenStore(store, testSeg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, c, err := r.Column(0, 0); err != nil || c.PoolMisses == 0 {
		t.Errorf("pool-less read: counts=%+v err=%v", c, err)
	}
}

func TestEmptySegment(t *testing.T) {
	r, err := OpenStore(putSegment(t), testSeg, bufpool.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumTiles() != 0 || r.NumRows() != 0 {
		t.Errorf("empty segment: %d tiles %d rows", r.NumTiles(), r.NumRows())
	}
}

// TestWriteFileAtomic: a segment written to an FS store appears under
// its name only, with no temporary left beside it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	store, err := blockstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	writeStoreSegment(t, store, "seg")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "seg" {
			t.Errorf("leftover file %q after WriteStore", e.Name())
		}
	}
}

func TestOpenErrors(t *testing.T) {
	store := blockstore.NewMem()
	check := func(name string, b []byte) {
		t.Helper()
		store.Put(name, b)
		if _, err := OpenStore(store, name, nil); err == nil {
			t.Errorf("%s: OpenStore succeeded, want error", name)
		}
	}
	check("empty", nil)
	check("short", []byte("JT"))
	check("zeros", make([]byte, 64))
	check("badmagic", append([]byte("XXSEG999"), make([]byte, 40)...))

	// Valid header, garbage tail.
	b := append([]byte(Magic), make([]byte, 100)...)
	check("badtail", b)

	// Truncate a valid segment at every eighth byte: each must error,
	// never panic.
	good, _, _ := writeTestSegment(t)
	data, err := blockstore.ReadAll(good, testSeg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 8 {
		check(fmt.Sprintf("trunc%d", cut), data[:cut])
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	store, _, _ := writeTestSegment(t)
	data, err := blockstore.ReadAll(store, testSeg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the first data block (just after the header).
	data[len(Magic)+3] ^= 0xFF
	store.Put("corrupt.seg", data)
	r, err := OpenStore(store, "corrupt.seg", bufpool.New(0))
	if err != nil {
		// The flipped byte may fall in the footer region of a small
		// segment; detection at open is equally acceptable.
		return
	}
	defer r.Close()
	// Some block read must fail its checksum.
	sawErr := false
	for ti := 0; ti < r.NumTiles(); ti++ {
		if _, _, err := r.Docs(ti); err != nil {
			sawErr = true
		}
		for ci := range r.Tile(ti).Columns {
			if _, _, err := r.Column(ti, ci); err != nil {
				sawErr = true
			}
		}
	}
	if !sawErr {
		t.Error("no read detected the flipped byte")
	}
}
