package lz4

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip: compress→decompress must be the identity for any
// input, within the documented bound, and the pooled table — reused
// from earlier inputs — must compress exactly as a fresh one.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("ab"), 100))
	f.Add([]byte(`{"id":1,"status":"shipped","status":"shipped"}`))
	f.Fuzz(func(t *testing.T, src []byte) {
		comp := Compress(nil, src)
		if !bytes.Equal(comp, freshCompress(nil, src)) {
			t.Fatal("pooled table output differs from a fresh table")
		}
		if len(comp) > CompressBound(len(src)) {
			t.Fatalf("compressed %d exceeds bound %d", len(comp), CompressBound(len(src)))
		}
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if n != len(src) || !bytes.Equal(dst[:n], src) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzDecompress: arbitrary bytes must never panic or overrun.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{0x10, 'x', 0x01, 0x00}, 64)
	f.Add([]byte{0xF0, 0xFF, 0x01}, 16)
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		if size < 0 || size > 1<<16 {
			return
		}
		dst := make([]byte, size)
		n, err := Decompress(dst, data)
		if err == nil && n > size {
			t.Fatalf("wrote %d into %d-byte buffer", n, size)
		}
	})
}
