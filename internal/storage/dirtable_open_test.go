package storage

// The cold open: a table opens from its manifest alone, segment
// statistics load on first use, a manifest without tile indexes fails
// the open, and an open never deletes another writer's segment.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/manifest"
	"repro/internal/segment"
	"repro/internal/xxhash"
)

func openTestCfg() LoaderConfig {
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 16
	return cfg
}

// TestOpenDirStoreOneRequest: a cold open is one whole-object read of
// the manifest, whatever the segment count; no request reaches a
// segment object.
func TestOpenDirStoreOneRequest(t *testing.T) {
	const latency = 20 * time.Millisecond
	for _, segs := range []int{1, 6} {
		mem := blockstore.NewMem()
		storeConformTable(t, mem, segs, 48).Close()
		fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
		start := time.Now()
		dt, err := OpenDirStore("t", fake, nil, openTestCfg(), 4, false)
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if dt.NumSegments() != segs || dt.NumRows() != segs*48 {
			t.Fatalf("%d segments, %d rows; want %d, %d", dt.NumSegments(), dt.NumRows(), segs, segs*48)
		}
		if reqs, reads := fake.Requests(), fake.RangeReadCount(); reqs != 1 || reads != 1 {
			t.Errorf("%d segments: open issued %d requests (%d range reads), want 1 (one MANIFEST read)", segs, reqs, reads)
		}
		if d >= 2*latency {
			t.Errorf("%d segments: open took %v, want one round trip (< %v)", segs, d, 2*latency)
		}
		dt.Close()
	}
}

// TestIndexedReaderMatchesFooter: for every segment, the Reader a write
// builds and the Reader a reopen builds from the manifest's tile index
// carry the tile metadata a footer-first open decodes.
func TestIndexedReaderMatchesFooter(t *testing.T) {
	mem := blockstore.NewMem()
	written := storeConformTable(t, mem, 4, 48)
	defer written.Close()
	if _, err := written.Compact(); err != nil {
		t.Fatal(err)
	}
	tiles, st := dirTestBatch(t, dirTestLines(9, 48))
	if err := written.AppendTiles(tiles, st, 2); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDirStore("t", mem, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for label, dt := range map[string]*DirTable{"written": written, "reopened": reopened} {
		segs := dt.snapshot()
		if len(segs) != 2 {
			t.Fatalf("%s: %d segments, want the compacted one and the appended one", label, len(segs))
		}
		for _, ls := range segs {
			r, err := segment.OpenStore(mem, ls.file, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.NumTiles() != ls.r.NumTiles() || !bytes.Equal(r.Index(), ls.r.Index()) {
				t.Errorf("%s %s: %d tiles, index of %d bytes; footer gives %d, %d", label, ls.file,
					ls.r.NumTiles(), len(ls.r.Index()), r.NumTiles(), len(r.Index()))
			}
			for ti := 0; ti < min(r.NumTiles(), ls.r.NumTiles()); ti++ {
				if !reflect.DeepEqual(r.Tile(ti), ls.r.Tile(ti)) {
					t.Errorf("%s %s tile %d: metadata differs from the footer's", label, ls.file, ti)
				}
			}
			r.Close()
		}
		releaseSegs(segs)
	}
}

// readLog records every ranged read that reaches its store. A
// whole-object read (n < 0) is logged with the length it returned.
type readLog struct {
	blockstore.Store
	mu    sync.Mutex
	reads map[string][][2]int64 // object -> [off, len]
}

func (s *readLog) ReadRange(name string, off, n int64) ([]byte, error) {
	b, err := s.Store.ReadRange(name, off, n)
	if n < 0 {
		n = int64(len(b))
	}
	s.mu.Lock()
	s.reads[name] = append(s.reads[name], [2]int64{off, n})
	s.mu.Unlock()
	return b, err
}

// footerOffset reads a segment object's footer offset from its tail.
func footerOffset(t *testing.T, store blockstore.Store, file string) int64 {
	t.Helper()
	size, err := store.Size(file)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := store.ReadRange(file, size-segment.TailSize, segment.TailSize)
	if err != nil {
		t.Fatal(err)
	}
	return int64(binary.LittleEndian.Uint64(tail))
}

// TestSingleTableScanReadsNoFooter: a scan reads data blocks only; the
// footer, which now holds nothing a single-table query needs, is never
// read.
func TestSingleTableScanReadsNoFooter(t *testing.T) {
	mem := blockstore.NewMem()
	storeConformTable(t, mem, 3, 48).Close()
	log := &readLog{Store: mem, reads: map[string][][2]int64{}}
	dt, err := OpenDirStore("t", log, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	accesses := append(dirTestAccesses(), NewAccess(expr.TText)) // the whole document too
	if got := scanMultiset(dt, accesses); len(got) != 3*48 {
		t.Fatalf("%d distinct rows, want %d", len(got), 3*48)
	}
	if err := dt.Err(); err != nil {
		t.Fatal(err)
	}
	segReads := 0
	for name, reads := range log.reads {
		if !manifest.IsSegmentFileName(name) {
			continue
		}
		footer := footerOffset(t, mem, name)
		for _, r := range reads {
			segReads++
			if r[0]+r[1] > footer {
				t.Errorf("%s: read [%d,+%d) reaches the footer at %d", name, r[0], r[1], footer)
			}
		}
	}
	if segReads == 0 {
		t.Fatal("the scan read no segment block")
	}
}

// TestStatsReadsEachFooterOnce: the first Stats reads every segment's
// footer once, all in one round trip; later calls, and a call after an
// append (whose Reader holds the statistics it wrote), read nothing.
func TestStatsReadsEachFooterOnce(t *testing.T) {
	const latency, segs = 20 * time.Millisecond, 6
	mem := blockstore.NewMem()
	storeConformTable(t, mem, segs, 48).Close()
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
	dt, err := OpenDirStore("t", fake, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	before := fake.RangeReadCount()
	start := time.Now()
	st := dt.Stats()
	d := time.Since(start)
	if st == nil || st.RowCount() != segs*48 {
		t.Fatalf("Stats = %v, want %d rows (err %v)", st, segs*48, dt.Err())
	}
	if reads := fake.RangeReadCount() - before; reads != segs {
		t.Errorf("Stats issued %d reads, want one footer read per segment (%d)", reads, segs)
	}
	if d >= 2*latency {
		t.Errorf("Stats took %v, want one round trip (< %v)", d, 2*latency)
	}
	tiles, bst := dirTestBatch(t, dirTestLines(segs, 48))
	if err := dt.AppendTiles(tiles, bst, 2); err != nil {
		t.Fatal(err)
	}
	before = fake.RangeReadCount()
	if st := dt.Stats(); st == nil || st.RowCount() != (segs+1)*48 {
		t.Fatalf("Stats after append = %v, want %d rows", st, (segs+1)*48)
	}
	dt.Stats()
	if reads := fake.RangeReadCount() - before; reads != 0 {
		t.Errorf("later Stats calls issued %d reads, want 0", reads)
	}
}

// TestStatsReadFailure: a footer that cannot be read leaves the table
// without statistics (nil, which planners read as "none"), records the
// error for Err, and changes no answer.
func TestStatsReadFailure(t *testing.T) {
	mem := blockstore.NewMem()
	dt := storeConformTable(t, mem, 3, 48)
	accesses := dirTestAccesses()
	want := scanMultiset(dt, accesses)
	dt.Close()
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{})
	dt, err := OpenDirStore("t", fake, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	fake.FailNextReads(1000)
	st := dt.Stats()
	fake.FailNextReads(-1)
	if st != nil {
		t.Fatalf("Stats = %v over unreadable footers, want nil", st)
	}
	if err := dt.Err(); err == nil || !strings.Contains(err.Error(), "statistics") {
		t.Fatalf("Err = %v, want the statistics read failure", err)
	}
	sameMultiset(t, "without statistics", scanMultiset(dt, accesses), want)
	if st := dt.Stats(); st == nil || st.RowCount() != 3*48 {
		t.Errorf("Stats once the store recovers = %v, want %d rows", st, 3*48)
	}
}

// TestLegacyManifestFails: a manifest whose entry carries no tile
// index, or one under the JTMAN001 header (tile indexes with zone
// maps) or the JTMAN002 one (whole-document blocks), fails the open
// with an error naming the entry's segment or the header found; the
// manifest is hand-encoded here, as its writers are gone.
func TestLegacyManifestFails(t *testing.T) {
	mem := blockstore.NewMem()
	storeConformTable(t, mem, 3, 48).Close()
	man, err := manifest.LoadStore(mem)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(magic string, index func(manifest.Segment) string) []byte {
		var entries []string
		for _, s := range man.Segments {
			entries = append(entries, fmt.Sprintf(`{"id":%d,"file":%q,"bytes":%d%s}`, s.ID, s.File, s.Bytes, index(s)))
		}
		body := fmt.Sprintf(`{"version":%d,"next_id":%d,"segments":[%s]}`, man.Version, man.NextID, strings.Join(entries, ","))
		return fmt.Appendf(nil, "%s %016x\n%s", magic, xxhash.Sum64([]byte(body)), body)
	}
	withIndex := func(s manifest.Segment) string {
		return fmt.Sprintf(`,"index":%q`, base64.StdEncoding.EncodeToString(s.Index))
	}
	noIndex := func(s manifest.Segment) string {
		if s.ID == man.Segments[1].ID {
			return ""
		}
		return withIndex(s)
	}
	if _, err := manifest.Decode(encode("JTMAN003", withIndex)); err != nil {
		t.Fatalf("the hand encoding does not decode: %v", err)
	}
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"index-less entry", man.Segments[1].File, encode("JTMAN003", noIndex)},
		{"JTMAN001 header", `"JTMAN001 `, encode("JTMAN001", withIndex)},
		{"JTMAN002 header", `"JTMAN002 `, encode("JTMAN002", withIndex)},
	} {
		if err := mem.Put(manifest.FileName, c.data); err != nil {
			t.Fatal(err)
		}
		dt, err := OpenDirStore("t", mem, nil, openTestCfg(), 4, false)
		if err == nil {
			dt.Close()
			t.Errorf("%s: the open succeeded", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: open error %q does not name %s", c.name, err, c.want)
		}
	}
}

// holdCommit holds the first MANIFEST Put until released: a writer
// paused between its segment Put and its commit.
type holdCommit struct {
	blockstore.Store
	once             sync.Once
	arrived, release chan struct{}
}

func (s *holdCommit) Put(name string, data []byte) error {
	if name == manifest.FileName {
		s.once.Do(func() {
			close(s.arrived)
			<-s.release
		})
	}
	return s.Store.Put(name, data)
}

// TestOpenLeavesUncommittedSegment: a table opened while another has
// put a segment but not yet committed it leaves that segment alone, and
// the writer's commit then succeeds.
func TestOpenLeavesUncommittedSegment(t *testing.T) {
	mem := blockstore.NewMem()
	storeConformTable(t, mem, 1, 48).Close()
	hold := &holdCommit{Store: mem, arrived: make(chan struct{}), release: make(chan struct{})}
	writer, err := OpenDirStore("t", hold, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	tiles, st := dirTestBatch(t, dirTestLines(1, 48))
	done := make(chan error, 1)
	go func() { done <- writer.AppendTiles(tiles, st, 2) }()
	<-hold.arrived

	file := manifest.SegmentFileName(1)
	if _, err := mem.Size(file); err != nil {
		t.Fatalf("the writer's segment is not in the store: %v", err)
	}
	reader, err := OpenDirStore("t", mem, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if reader.NumRows() != 48 {
		t.Errorf("reader sees %d rows, want the committed 48", reader.NumRows())
	}
	reader.Close()
	if _, err := mem.Size(file); err != nil {
		t.Fatalf("opening a reader deleted the uncommitted segment: %v", err)
	}

	close(hold.release)
	if err := <-done; err != nil {
		t.Fatalf("the writer's commit: %v", err)
	}
	after, err := OpenDirStore("t", mem, nil, openTestCfg(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.NumRows() != 96 {
		t.Fatalf("after the commit: %d rows, want 96", after.NumRows())
	}
	if got := scanMultiset(after, dirTestAccesses()); len(got) != 96 {
		t.Errorf("after the commit: %d distinct rows, want 96", len(got))
	}
}
