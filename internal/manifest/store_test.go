package manifest

import (
	"testing"
	"time"

	"repro/internal/blockstore"
)

func TestStoreCommitLoadRoundTrip(t *testing.T) {
	s := blockstore.NewMem()

	// A store without a manifest is a fresh table.
	if m, err := LoadStore(s); err != nil || m != nil {
		t.Fatalf("LoadStore(empty) = %+v, %v; want nil, nil", m, err)
	}

	want := testManifest()
	if err := CommitStore(s, want); err != nil {
		t.Fatalf("CommitStore: %v", err)
	}
	got, err := LoadStore(s)
	if err != nil {
		t.Fatalf("LoadStore: %v", err)
	}
	if got.Version != want.Version || got.NextID != want.NextID || len(got.Segments) != len(want.Segments) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}

	// CommitStore replaces the generation atomically via Put.
	want.Version++
	if err := CommitStore(s, want); err != nil {
		t.Fatalf("re-CommitStore: %v", err)
	}
	if got, _ := LoadStore(s); got.Version != want.Version {
		t.Fatalf("after re-commit, version = %d, want %d", got.Version, want.Version)
	}
}

func TestRecoverStore(t *testing.T) {
	s := blockstore.NewMem()
	if err := CommitStore(s, testManifest()); err != nil {
		t.Fatal(err)
	}
	// Live segment, orphan segment (no committed reference), leftover
	// temporary, and an unrelated object.
	s.Put(SegmentFileName(1), []byte("live"))
	s.Put(SegmentFileName(2), []byte("orphan"))
	s.Put("seg-000002.seg.tmp", []byte("torn"))
	s.Put("notes.txt", []byte("keep"))

	removed, err := CollectOrphans(s, testManifest())
	if err != nil {
		t.Fatalf("CollectOrphans: %v", err)
	}
	if removed != 2 {
		t.Fatalf("CollectOrphans removed %d; want 2", removed)
	}
	names, _ := s.List()
	want := []string{FileName, "notes.txt", SegmentFileName(1)}
	if len(names) != len(want) {
		t.Fatalf("surviving objects = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("surviving objects = %v, want %v", names, want)
		}
	}
}

func TestRecoverStoreEmpty(t *testing.T) {
	if removed, err := CollectOrphans(blockstore.NewMem(), &Manifest{}); err != nil || removed != 0 {
		t.Fatalf("CollectOrphans: %d, %v", removed, err)
	}
}

// TestRecoverStoreRoundTrips: collecting over a clean store is one
// List — it does not read the manifest, which its caller holds.
func TestRecoverStoreRoundTrips(t *testing.T) {
	const latency = 20 * time.Millisecond
	mem := blockstore.NewMem()
	if err := CommitStore(mem, testManifest()); err != nil {
		t.Fatal(err)
	}
	mem.Put(SegmentFileName(1), []byte("live"))
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
	start := time.Now()
	removed, err := CollectOrphans(fake, testManifest())
	d := time.Since(start)
	if err != nil || removed != 0 {
		t.Fatalf("CollectOrphans = removed %d, %v", removed, err)
	}
	if got := fake.Requests(); got != 1 {
		t.Errorf("collection issued %d requests, want 1", got)
	}
	if d >= 2*latency {
		t.Errorf("collection took %v, want one round trip (< %v)", d, 2*latency)
	}
}
