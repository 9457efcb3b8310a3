// Package manifest implements the versioned segment catalog of a
// multi-segment table. The manifest is the single commit point of the
// store: a segment object only becomes visible — and only survives
// orphan collection — once a manifest generation referencing it has
// been atomically published. Everything else in the store (half-written
// temporaries, segments whose commit never happened) is garbage that
// the store's writer collects before its first segment write.
//
// A manifest is one small text object:
//
//	JTMAN003 <xxh64 of body, 16 hex digits>\n
//	{ ...JSON body: version, next segment id, segment list... }
//
// The checksum covers the JSON body, so a torn or bit-flipped
// manifest is detected before any field is trusted. Every segment
// entry carries the segment's tile index, so a table opens from the
// manifest alone. Commits publish through the store's atomic Put — the
// same protocol segment objects use — so a crash at any instant leaves
// either the previous generation or the new one, never a mix.
package manifest

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
	"repro/internal/xxhash"
)

const (
	// FileName is the manifest's name inside a table directory.
	FileName = "MANIFEST"

	// headerMagic opens the file; the version suffix is bumped on any
	// incompatible layout change, the tile-index layout included.
	headerMagic = "JTMAN003"

	// segPrefix/segSuffix frame segment file names: seg-%06d.seg.
	segPrefix = "seg-"
	segSuffix = ".seg"

	tmpSuffix = ".tmp"
)

// Segment is one committed segment file.
type Segment struct {
	// ID is the segment's allocation number; segment files are named
	// SegmentFileName(ID) and IDs are never reused within a table.
	ID uint64 `json:"id"`
	// File is the segment's file name relative to the table directory.
	File string `json:"file"`
	// Bytes is the segment's object size.
	Bytes int64 `json:"bytes"`
	// Index is the segment's tile index (segment.Reader.Index), opaque
	// here and never empty.
	Index []byte `json:"index"`
}

// Manifest is one committed generation of a table directory: which
// segment files are live, in scan order.
type Manifest struct {
	// Version is the commit sequence number, incremented on every
	// successful commit (append or compaction).
	Version uint64 `json:"version"`
	// NextID is the next unallocated segment ID.
	NextID uint64 `json:"next_id"`
	// Segments lists the live segments in scan order.
	Segments []Segment `json:"segments"`
}

// SegmentFileName returns the canonical file name for segment id.
func SegmentFileName(id uint64) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, id, segSuffix)
}

// IsSegmentFileName reports whether name looks like a segment file —
// the shape CollectOrphans considers.
func IsSegmentFileName(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// Encode serializes the manifest: checksummed header line plus JSON
// body.
func (m *Manifest) Encode() []byte {
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		// Manifest has no unmarshalable fields; this cannot happen.
		panic(err)
	}
	head := fmt.Sprintf("%s %016x\n", headerMagic, xxhash.Sum64(body))
	return append([]byte(head), body...)
}

// Decode parses and validates an encoded manifest. Any structural
// problem — bad magic, checksum mismatch, malformed JSON, duplicate
// or ill-formed segment entries, an entry without a tile index —
// returns an error; a nil error guarantees the manifest is internally
// consistent.
func Decode(b []byte) (*Manifest, error) {
	nl := -1
	for i, c := range b {
		if c == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("manifest: missing header line")
	}
	head := string(b[:nl])
	body := b[nl+1:]
	var magic string
	var sum uint64
	if _, err := fmt.Sscanf(head, "%8s %16x", &magic, &sum); err != nil || magic != headerMagic {
		return nil, fmt.Errorf("manifest: bad header %q", head)
	}
	if got := xxhash.Sum64(body); got != sum {
		return nil, fmt.Errorf("manifest: checksum %016x, want %016x", got, sum)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		switch {
		case s.File != SegmentFileName(s.ID):
			return nil, fmt.Errorf("manifest: segment %d named %q, want %q", s.ID, s.File, SegmentFileName(s.ID))
		case s.ID >= m.NextID:
			return nil, fmt.Errorf("manifest: segment id %d not below next_id %d", s.ID, m.NextID)
		case s.Bytes < 0:
			return nil, fmt.Errorf("manifest: segment %q of %d bytes", s.File, s.Bytes)
		case len(s.Index) == 0:
			return nil, fmt.Errorf("manifest: segment %q has no tile index", s.File)
		case seen[s.File]:
			return nil, fmt.Errorf("manifest: duplicate segment %q", s.File)
		}
		seen[s.File] = true
	}
	return &m, nil
}

// CommitStore atomically publishes the manifest as the store's
// current generation: on a nil error the generation is durable; on any
// error the previous generation is untouched (the store's Put
// contract).
func CommitStore(s blockstore.Store, m *Manifest) error {
	start := time.Now()
	if err := s.Put(FileName, m.Encode()); err != nil {
		return err
	}
	obs.ManifestCommitSeconds.ObserveSince(start)
	return nil
}

// LoadStore reads the store's current manifest. A missing manifest
// returns (nil, nil): the store holds no committed generation (a fresh
// table). A present-but-invalid manifest is an error — the store
// refuses to guess at its contents.
func LoadStore(s blockstore.Store) (*Manifest, error) {
	b, err := blockstore.ReadAll(s, FileName)
	if blockstore.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// CollectOrphans deletes every object of the store that generation m
// does not reference — temporaries from interrupted writes and segment
// objects whose manifest commit never happened — and returns how many
// it removed. Objects that are neither temporaries nor segment-shaped
// are left alone. Only the store's one writer may collect, before it
// puts a segment of its own (DESIGN.md §6.9): an uncommitted segment
// is indistinguishable from an orphan.
func CollectOrphans(s blockstore.Store, m *Manifest) (int, error) {
	names, err := s.List()
	if err != nil {
		return 0, err
	}
	live := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		live[seg.File] = true
	}
	sort.Strings(names)
	removed := 0
	for _, name := range names {
		orphan := strings.HasSuffix(name, tmpSuffix) ||
			(IsSegmentFileName(name) && !live[name])
		if !orphan {
			continue
		}
		if err := s.Delete(name); err == nil {
			removed++
		}
	}
	return removed, nil
}
