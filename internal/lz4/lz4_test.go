package lz4

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	n, err := Decompress(dst, comp)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if n != len(src) {
		t.Fatalf("decompressed %d bytes, want %d", n, len(src))
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("round trip mismatch")
	}
	return comp
}

// Regression test for the declared-size guard: a block whose length
// field claims a huge decompressed size must be rejected with
// ErrSizeLimit before any allocation — a corrupt segment block length
// must not be able to OOM the reader.
func TestDecompressAllocSizeLimit(t *testing.T) {
	src := Compress(nil, []byte("payload"))
	for _, size := range []int{-1, MaxDecompressedSize + 1, 1 << 50} {
		if _, err := DecompressAlloc(src, size); err != ErrSizeLimit {
			t.Errorf("declared size %d: err = %v, want ErrSizeLimit", size, err)
		}
	}
	// A truthful declared size still round-trips.
	out, err := DecompressAlloc(src, len("payload"))
	if err != nil || string(out) != "payload" {
		t.Fatalf("DecompressAlloc = %q, %v", out, err)
	}
	// A wrong-but-sane declared size is corruption, not success.
	if _, err := DecompressAlloc(src, len("payload")+3); err == nil {
		t.Error("over-declared size: want error, got nil")
	}
	if _, err := DecompressAlloc(src, 2); err == nil {
		t.Error("under-declared size: want error, got nil")
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("hello"),
		[]byte("hello world hello world hello world"),
		bytes.Repeat([]byte("x"), 10000),
		bytes.Repeat([]byte("abcd"), 5000),
		[]byte(strings.Repeat(`{"id":1,"name":"test","tags":["a","b"]}`, 200)),
	}
	for i, src := range cases {
		t.Run(string(rune('a'+i)), func(t *testing.T) { roundTrip(t, src) })
	}
}

func TestCompressionRatioOnRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte(`{"l_orderkey":1,"l_partkey":155190,"l_quantity":17},`), 1000)
	comp := roundTrip(t, src)
	ratio := float64(len(src)) / float64(len(comp))
	if ratio < 5 {
		t.Errorf("ratio %.1f too low for highly repetitive input (%d -> %d)",
			ratio, len(src), len(comp))
	}
}

func TestIncompressibleWithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	src := make([]byte, 100000)
	r.Read(src)
	comp := roundTrip(t, src)
	if len(comp) > CompressBound(len(src)) {
		t.Errorf("compressed %d exceeds bound %d", len(comp), CompressBound(len(src)))
	}
}

func TestShortInputs(t *testing.T) {
	for n := 0; n < 32; n++ {
		src := bytes.Repeat([]byte("ab"), n)[:n]
		roundTrip(t, src)
	}
}

func TestOverlappingMatches(t *testing.T) {
	// RLE-style data forces offset < matchLen (overlapping copies).
	roundTrip(t, bytes.Repeat([]byte{0xAA}, 1000))
	roundTrip(t, bytes.Repeat([]byte{1, 2}, 1000))
	roundTrip(t, bytes.Repeat([]byte{1, 2, 3}, 1000))
}

func TestLongLiteralRuns(t *testing.T) {
	// Random data produces literal runs needing length extension bytes.
	r := rand.New(rand.NewSource(7))
	src := make([]byte, 1000)
	r.Read(src)
	roundTrip(t, src)
}

func TestLongMatches(t *testing.T) {
	// >270-byte matches need match-length extension bytes.
	src := append([]byte("prefix-data-1234"), bytes.Repeat([]byte("z"), 5000)...)
	roundTrip(t, src)
}

func TestDecompressCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("hello world "), 100)
	comp := Compress(nil, src)
	dst := make([]byte, len(src))

	// Truncations must error or return short, never panic.
	for i := 0; i < len(comp); i++ {
		n, err := Decompress(dst, comp[:i])
		if err == nil && n == len(src) {
			t.Errorf("truncation at %d decoded fully", i)
		}
	}
	// Bit flips must never panic.
	for i := 0; i < len(comp); i++ {
		bad := append([]byte(nil), comp...)
		bad[i] ^= 0xFF
		Decompress(dst, bad)
	}
}

func TestDecompressShortDst(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 100)
	comp := Compress(nil, src)
	dst := make([]byte, len(src)/2)
	if _, err := Decompress(dst, comp); err == nil {
		t.Error("expected error on short destination")
	}
}

func TestZeroOffsetRejected(t *testing.T) {
	// token: 1 literal, match len 4; literal 'x'; offset 0 (invalid).
	bad := []byte{0x10, 'x', 0x00, 0x00}
	dst := make([]byte, 64)
	if _, err := Decompress(dst, bad); err == nil {
		t.Error("zero offset accepted")
	}
}

func TestOffsetBeyondStartRejected(t *testing.T) {
	// offset 5 with only 1 byte produced.
	bad := []byte{0x10, 'x', 0x05, 0x00}
	dst := make([]byte, 64)
	if _, err := Decompress(dst, bad); err == nil {
		t.Error("out-of-range offset accepted")
	}
}

// Property: compress→decompress is the identity for arbitrary bytes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		comp := Compress(nil, src)
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		return err == nil && n == len(src) && bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: structured JSON-ish data compresses below 60%.
func TestStructuredDataCompresses(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString(`{"id":`)
		sb.WriteString(strings.Repeat("9", 1+i%5))
		sb.WriteString(`,"status":"shipped","region":"EUROPE"}`)
	}
	src := []byte(sb.String())
	comp := roundTrip(t, src)
	if float64(len(comp)) > 0.6*float64(len(src)) {
		t.Errorf("only compressed %d -> %d", len(src), len(comp))
	}
}

// freshCompress is the reference compressor: a zeroed table per call,
// entries holding position + 1, and matches extended one byte at a
// time. The pooled compressor, which extends a word at a time, must
// reproduce its output byte for byte.
func freshCompress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	if len(src) < mfLimit+minMatch {
		return emitLastLiterals(dst, src)
	}
	var table [1 << hashLog]int32
	anchor, pos, limit := 0, 0, len(src)-mfLimit
	for pos < limit {
		seq := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(seq)
		cand := int(table[h]) - 1
		table[h] = int32(pos) + 1
		if cand < 0 || pos-cand > maxOffset || binary.LittleEndian.Uint32(src[cand:]) != seq {
			pos++
			continue
		}
		matchEnd, candEnd, hardEnd := pos+minMatch, cand+minMatch, len(src)-lastLiterals
		for matchEnd < hardEnd && src[matchEnd] == src[candEnd] {
			matchEnd++
			candEnd++
		}
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
		}
		dst = emitSequence(dst, src[anchor:pos], pos-cand, matchEnd-pos)
		pos = matchEnd
		anchor = pos
		if pos < limit && pos >= 2 {
			mid := pos - 2
			table[hash4(binary.LittleEndian.Uint32(src[mid:]))] = int32(mid) + 1
		}
	}
	return emitLastLiterals(dst, src[anchor:])
}

// checkedDecompress is the reference decoder: every sequence bounds-
// checked, literals and non-overlapping matches moved with copy,
// overlapping ones byte by byte, nothing written past the sequence's
// end. The decoder's fast path must return what it returns.
func checkedDecompress(dst, src []byte) (int, error) {
	if len(src) == 0 {
		return 0, nil
	}
	d, s := 0, 0
	for {
		if s >= len(src) {
			return 0, ErrCorrupt
		}
		token := src[s]
		s++
		litLen := int(token >> 4)
		if litLen == 15 {
			n, ns, err := readLenExt(src, s)
			if err != nil {
				return 0, err
			}
			litLen += n
			s = ns
		}
		if s+litLen > len(src) || d+litLen > len(dst) {
			return 0, corruptOrShort(d+litLen, len(dst))
		}
		copy(dst[d:], src[s:s+litLen])
		s += litLen
		d += litLen
		if s == len(src) {
			return d, nil
		}
		if s+2 > len(src) {
			return 0, ErrCorrupt
		}
		offset := int(src[s]) | int(src[s+1])<<8
		s += 2
		if offset == 0 || offset > d {
			return 0, ErrCorrupt
		}
		matchLen := int(token&0xF) + minMatch
		if token&0xF == 15 {
			n, ns, err := readLenExt(src, s)
			if err != nil {
				return 0, err
			}
			matchLen += n
			s = ns
		}
		if d+matchLen > len(dst) {
			return 0, ErrShortDst
		}
		if offset >= matchLen {
			copy(dst[d:], dst[d-offset:d-offset+matchLen])
			d += matchLen
		} else {
			for i := 0; i < matchLen; i++ {
				dst[d] = dst[d-offset]
				d++
			}
		}
	}
}

// mixedInputs returns inputs of many sizes and shapes, several sharing
// content so that stale table entries of one call would find real
// matches in the next if they were not rejected.
func mixedInputs() [][]byte {
	r := rand.New(rand.NewSource(11))
	var out [][]byte
	for _, n := range []int{16, 17, 100, 4096, 70000, 300, 1 << 17, 20, 5000} {
		random := make([]byte, n)
		r.Read(random)
		text := []byte(strings.Repeat(`{"id":42,"status":"shipped","tags":["a","b"]}`, n/40+1)[:n])
		out = append(out, random, text, bytes.Repeat(random[:n/4+1], 4)[:n])
	}
	return out
}

// TestReusedTableMatchesFreshTable: one table carried through a
// sequence of mixed-size inputs produces exactly what a fresh table per
// input produces, including across the reset that keeps base inside
// int32.
func TestReusedTableMatchesFreshTable(t *testing.T) {
	for _, start := range []int32{0, math.MaxInt32 - 1<<16, math.MaxInt32 - 40} {
		tbl := &hashTable{base: start}
		if start != 0 {
			// Stale entries a wrap must not resurrect.
			for i := range tbl.entries {
				tbl.entries[i] = start - int32(i%7)
			}
		}
		wrapped := false
		for i, src := range mixedInputs() {
			before := tbl.base
			got := tbl.compress([]byte("prefix"), src)
			wrapped = wrapped || tbl.base < before
			if want := freshCompress([]byte("prefix"), src); !bytes.Equal(got, want) {
				t.Fatalf("base %d, input %d (%d B): reused table output differs from a fresh table", start, i, len(src))
			}
		}
		if start != 0 && !wrapped {
			t.Errorf("base %d: the sequence never reset the table", start)
		}
	}
	// The pooled entry point agrees as well.
	for i, src := range mixedInputs() {
		if !bytes.Equal(Compress(nil, src), freshCompress(nil, src)) {
			t.Fatalf("input %d: Compress differs from a fresh table", i)
		}
	}
}

// TestWordMatchExtensionMatchesByteLoop: extending matches a word at a
// time finds the same match ends as the byte loop — on random inputs
// whose matches end at every offset within a word and run into the
// final literals. JSONB blocks are checked in TestCompressJSONBBlocks.
func TestWordMatchExtensionMatchesByteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		// Copies of a few random snippets, each copy cut at a random
		// length and sometimes mutated, over a small alphabet.
		var src []byte
		snippets := make([][]byte, 1+r.Intn(4))
		for i := range snippets {
			snippets[i] = make([]byte, 1+r.Intn(40))
			for j := range snippets[i] {
				snippets[i][j] = byte('a' + r.Intn(1+r.Intn(4)))
			}
		}
		for n := r.Intn(300); len(src) < n; {
			s := snippets[r.Intn(len(snippets))]
			s = s[:1+r.Intn(len(s))]
			src = append(src, s...)
			if r.Intn(3) == 0 {
				src[r.Intn(len(src))] ^= byte(1 + r.Intn(255))
			}
		}
		if got, want := Compress(nil, src), freshCompress(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d B %q): word-at-a-time output differs from the byte loop", trial, len(src), src)
		}
	}
}
