package lz4

import (
	"bytes"
	"math/rand"
	"strings"
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

// FuzzDecompress: on arbitrary bytes and destination sizes the
// decoder never panics or overruns, and returns what the checked
// reference decoder returns: the same count, the same error, and on
// success the same bytes. The seeds are compressed blocks longer than
// the fast path's slack, so mutations reach both the fast path and the
// checked one.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{0x10, 'x', 0x01, 0x00}, 64)
	f.Add([]byte{0xF0, 0xFF, 0x01}, 16)
	text := []byte(strings.Repeat(`{"id":42,"status":"shipped","tags":["a","b"],"n":7}`, 12))
	runs := append(bytes.Repeat([]byte("ab"), 40), text[:200]...)
	// A few random literals, then a copy of 4–18 bytes from 4–40
	// bytes back, over and over: short matches at offsets on both
	// sides of 16, some overlapping their source.
	r := rand.New(rand.NewSource(1))
	lz := make([]byte, 40)
	r.Read(lz)
	for len(lz) < 800 {
		lit := make([]byte, r.Intn(6))
		r.Read(lit)
		lz = append(lz, lit...)
		off, n := 4+r.Intn(37), 4+r.Intn(15)
		for range n {
			lz = append(lz, lz[len(lz)-off])
		}
	}
	for _, src := range [][]byte{text, runs, lz, append(text[:100:100], bytes.Repeat([]byte{0}, 300)...)} {
		comp := Compress(nil, src)
		f.Add(comp, len(src))
		f.Add(comp, len(src)/2)
		f.Add(comp[:len(comp)-7], len(src))
	}
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		if size < 0 || size > 1<<16 {
			return
		}
		dst, want := make([]byte, size), make([]byte, size)
		n, err := Decompress(dst, data)
		wn, werr := checkedDecompress(want, data)
		if n != wn || err != werr {
			t.Fatalf("decoded %d, %v; the reference %d, %v", n, err, wn, werr)
		}
		if n > size {
			t.Fatalf("wrote %d into %d-byte buffer", n, size)
		}
		if err == nil && !bytes.Equal(dst[:n], want[:n]) {
			t.Fatal("decoded bytes differ from the reference")
		}
	})
}
