package manifest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/xxhash"
)

func testManifest() *Manifest {
	return &Manifest{
		Version: 3,
		NextID:  5,
		Segments: []Segment{
			{ID: 1, File: SegmentFileName(1), Bytes: 4096, Index: []byte("tile index 1")},
			{ID: 4, File: SegmentFileName(4), Bytes: 1024, Index: []byte("\x00tile index\xff")},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := testManifest()
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Version != m.Version || got.NextID != m.NextID || len(got.Segments) != len(m.Segments) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i, s := range got.Segments {
		if !reflect.DeepEqual(s, m.Segments[i]) {
			t.Fatalf("segment %d: %+v vs %+v", i, s, m.Segments[i])
		}
	}
}

// TestDecodeRejectsCorruption: each corrupt manifest fails Decode with
// an error naming what it found.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := testManifest().Encode()
	body := enc[26:]
	cases := map[string]struct {
		b    []byte
		want string
	}{
		"empty":        {nil, "missing header"},
		"no header":    {[]byte("{}"), "missing header"},
		"bad magic":    {append([]byte("XXMAN001 0000000000000000\n"), body...), `bad header "XXMAN001 `},
		"JTMAN001":     {fmt.Appendf(nil, "JTMAN001 %016x\n%s", xxhash.Sum64(body), body), `bad header "JTMAN001 `},
		"JTMAN002":     {fmt.Appendf(nil, "JTMAN002 %016x\n%s", xxhash.Sum64(body), body), `bad header "JTMAN002 `},
		"flipped body": {append(append([]byte{}, enc[:len(enc)-1]...), enc[len(enc)-1]^1), "checksum"},
		"truncated":    {enc[:len(enc)/2], "checksum"},
	}
	for name, c := range cases {
		if _, err := Decode(c.b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode = %v, want an error naming %s", name, err, c.want)
		}
	}
}

func TestDecodeRejectsInconsistentSegments(t *testing.T) {
	index := []byte("tile index")
	cases := []*Manifest{
		{Version: 1, NextID: 1, Segments: []Segment{{ID: 1, File: SegmentFileName(1), Index: index}}},    // id >= next_id
		{Version: 1, NextID: 5, Segments: []Segment{{ID: 1, File: "other.seg", Index: index}}},           // wrong name
		{Version: 1, NextID: 5, Segments: []Segment{{ID: 1, File: SegmentFileName(1)}}},                  // no tile index
		{Version: 1, NextID: 5, Segments: []Segment{{ID: 1, File: SegmentFileName(1), Index: []byte{}}}}, // empty tile index
		{Version: 1, NextID: 5, Segments: []Segment{
			{ID: 1, File: SegmentFileName(1), Index: index}, {ID: 1, File: SegmentFileName(1), Index: index},
		}}, // duplicate
	}
	for i, m := range cases {
		if _, err := Decode(m.Encode()); err == nil {
			t.Errorf("case %d: Decode accepted inconsistent manifest", i)
		}
	}
	// An index-less entry fails naming its segment file.
	if _, err := Decode(cases[2].Encode()); err == nil || !strings.Contains(err.Error(), SegmentFileName(1)) {
		t.Errorf("index-less entry: Decode = %v, want an error naming %s", err, SegmentFileName(1))
	}
}

// fsStore opens an FS store over a fresh temporary directory — the
// store OpenDir builds, whose Put leaves real temporaries on a crash.
func fsStore(t *testing.T) (*blockstore.FS, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := blockstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestCommitLoad(t *testing.T) {
	s, dir := fsStore(t)
	if m, err := LoadStore(s); err != nil || m != nil {
		t.Fatalf("LoadStore of empty dir = %v, %v; want nil, nil", m, err)
	}
	want := testManifest()
	if err := CommitStore(s, want); err != nil {
		t.Fatalf("CommitStore: %v", err)
	}
	// A second commit replaces the generation atomically, leaving no
	// temporary behind.
	want.Version++
	want.Segments = want.Segments[:1]
	if err := CommitStore(s, want); err != nil {
		t.Fatalf("CommitStore 2: %v", err)
	}
	got, err := LoadStore(s)
	if err != nil || got.Version != want.Version || len(got.Segments) != 1 {
		t.Fatalf("LoadStore 2 = %+v, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatalf("temporary manifest left behind: %v", err)
	}
}

// failingPut is a store whose every Put fails: a crash before the
// manifest object is published.
type failingPut struct{ blockstore.Store }

func (failingPut) Put(string, []byte) error { return errors.New("injected crash") }

func TestCommitRenameFailureKeepsOldGeneration(t *testing.T) {
	s := blockstore.NewMem()
	old := testManifest()
	if err := CommitStore(s, old); err != nil {
		t.Fatalf("CommitStore: %v", err)
	}
	next := testManifest()
	next.Version++
	if err := CommitStore(failingPut{s}, next); err == nil {
		t.Fatal("CommitStore with failing Put succeeded")
	}
	got, err := LoadStore(s)
	if err != nil || got.Version != old.Version {
		t.Fatalf("old generation lost: %+v, %v", got, err)
	}
}

// TestRecover collects orphans in a real directory: orphans and the FS
// store's own temporaries are deleted from disk, everything else stays.
func TestRecover(t *testing.T) {
	s, dir := fsStore(t)
	m := &Manifest{
		Version:  2,
		NextID:   3,
		Segments: []Segment{{ID: 0, File: SegmentFileName(0), Bytes: 100, Index: []byte("tile index")}},
	}
	if err := CommitStore(s, m); err != nil {
		t.Fatalf("CommitStore: %v", err)
	}
	writeFile := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(SegmentFileName(0))             // live: kept
	writeFile(SegmentFileName(2))             // orphan: removed
	writeFile(SegmentFileName(7) + tmpSuffix) // temporary: removed
	writeFile("notes.txt")                    // unrelated: kept

	removed, err := CollectOrphans(s, m)
	if err != nil {
		t.Fatalf("CollectOrphans: %v", err)
	}
	if removed != 2 {
		t.Fatalf("removed %d files, want 2", removed)
	}
	for name, want := range map[string]bool{
		SegmentFileName(0): true,
		SegmentFileName(2): false,
		"notes.txt":        true,
	} {
		_, err := os.Stat(filepath.Join(dir, name))
		if exists := err == nil; exists != want {
			t.Errorf("%s: exists=%v, want %v", name, exists, want)
		}
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	s, _ := fsStore(t)
	if removed, err := CollectOrphans(s, &Manifest{}); err != nil || removed != 0 {
		t.Fatalf("CollectOrphans: %d, %v", removed, err)
	}
}

func TestSegmentFileName(t *testing.T) {
	if got := SegmentFileName(42); got != "seg-000042.seg" {
		t.Fatalf("SegmentFileName(42) = %q", got)
	}
	if !IsSegmentFileName("seg-000042.seg") || IsSegmentFileName("MANIFEST") {
		t.Fatal("IsSegmentFileName misclassifies")
	}
}
