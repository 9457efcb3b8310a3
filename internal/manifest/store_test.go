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

	m, removed, err := RecoverStore(s)
	if err != nil {
		t.Fatalf("RecoverStore: %v", err)
	}
	if m.Version != 3 || removed != 2 {
		t.Fatalf("RecoverStore = version %d, removed %d; want 3, 2", m.Version, removed)
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
	m, removed, err := RecoverStore(blockstore.NewMem())
	if err != nil || removed != 0 {
		t.Fatalf("RecoverStore: %d, %v", removed, err)
	}
	if m.Version != 0 || m.NextID != 0 || len(m.Segments) != 0 {
		t.Fatalf("fresh manifest = %+v", m)
	}
}

// TestRecoverStoreRoundTrips: the listing travels beside the
// manifest's Size and read, so recovery over a clean store costs two
// round trips for its three requests.
func TestRecoverStoreRoundTrips(t *testing.T) {
	const latency = 20 * time.Millisecond
	mem := blockstore.NewMem()
	if err := CommitStore(mem, testManifest()); err != nil {
		t.Fatal(err)
	}
	fake := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: latency})
	start := time.Now()
	m, removed, err := RecoverStore(fake)
	d := time.Since(start)
	if err != nil || removed != 0 || m.Version != 3 {
		t.Fatalf("RecoverStore = %+v, removed %d, %v", m, removed, err)
	}
	if got := fake.Requests(); got != 3 {
		t.Errorf("recovery issued %d requests, want 3", got)
	}
	if d >= 3*latency {
		t.Errorf("recovery took %v, want two round trips (< %v)", d, 3*latency)
	}
}
