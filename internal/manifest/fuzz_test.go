package manifest

import (
	"bytes"
	"testing"
)

// FuzzManifest throws arbitrary bytes at the manifest decoder: it
// must never panic, and anything it accepts must re-encode and decode
// to the same catalog (the recovery path trusts accepted manifests
// completely).
func FuzzManifest(f *testing.F) {
	f.Add([]byte(""))
	f.Add((&Manifest{Version: 1, NextID: 1}).Encode())
	f.Add(testManifest().Encode())
	enc := testManifest().Encode()
	f.Add(enc[:len(enc)-3])
	f.Add(append([]byte("JTMAN003 0000000000000000\n"), []byte("{}")...))
	// Entries carrying a longer tile index, and one without (rejected).
	withIndex := testManifest()
	withIndex.Segments[0].Index = bytes.Repeat([]byte{0xA5, 0x00, 0x7F}, 40)
	f.Add(withIndex.Encode())
	f.Add((&Manifest{Version: 2, NextID: 1, Segments: []Segment{{File: SegmentFileName(0), Index: []byte{}}}}).Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("accepted manifest fails round trip: %v", err)
		}
		if !bytes.Equal(m.Encode(), again.Encode()) {
			t.Fatal("round trip not stable")
		}
	})
}
