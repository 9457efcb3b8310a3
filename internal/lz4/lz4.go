// Package lz4 implements the LZ4 block format (compressor and
// decompressor) from scratch — the repository is stdlib-only, and the
// paper's Table 6 reports JSON tile storage "+LZ4-Tiles". The
// compressor is the classic greedy hash-chain-free scheme of the LZ4
// reference implementation: a 4-byte hash table proposes one candidate
// match per position.
//
// Block layout per sequence:
//
//	token (1B): high nibble = literal length (15 = extended),
//	            low nibble = match length - 4 (15 = extended)
//	[literal length extension: 255* + last byte]
//	literals
//	match offset (2B little endian, 1..65535)
//	[match length extension: 255* + last byte]
//
// The final sequence carries only literals. The format requires the
// last 5 bytes to be literals and the last match to begin at least 12
// bytes before the end; the compressor honors both.
package lz4

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync"

	"repro/internal/obs"
)

const (
	minMatch     = 4
	lastLiterals = 5  // spec: last 5 bytes must be literals
	mfLimit      = 12 // spec: matches must not start within 12 bytes of the end
	maxOffset    = 65535
	hashLog      = 16
)

// ErrCorrupt reports an undecodable block.
var ErrCorrupt = errors.New("lz4: corrupt block")

// ErrShortDst reports a destination too small for the decompressed data.
var ErrShortDst = errors.New("lz4: destination too small")

// ErrSizeLimit reports a declared decompressed size beyond
// MaxDecompressedSize — a corrupt or hostile length field that must be
// rejected before any allocation happens.
var ErrSizeLimit = errors.New("lz4: declared size exceeds limit")

// MaxDecompressedSize bounds the decompressed size DecompressAlloc is
// willing to allocate for. Segment blocks hold at most one tile's
// column or binary-JSON payload, which is orders of magnitude below
// this; anything larger in a length field is corruption, not data.
const MaxDecompressedSize = 1 << 30

// DecompressAlloc allocates a buffer for the declared decompressed
// size and decodes src into it. Unlike Decompress, the declared size
// comes from untrusted input (a file's length field), so it is checked
// against MaxDecompressedSize *before* allocating — a corrupt block
// length yields ErrSizeLimit, not an OOM. The decode must fill the
// buffer exactly.
func DecompressAlloc(src []byte, declaredSize int) ([]byte, error) {
	if declaredSize < 0 || declaredSize > MaxDecompressedSize {
		return nil, ErrSizeLimit
	}
	dst := make([]byte, declaredSize)
	n, err := Decompress(dst, src)
	if err != nil {
		return nil, err
	}
	if n != declaredSize {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// CompressBound returns the maximum compressed size for an input of
// length n (the spec's worst-case expansion bound).
func CompressBound(n int) int { return n + n/255 + 16 }

func hash4(u uint32) uint32 {
	return (u * 2654435761) >> (32 - hashLog)
}

// hashTable is the compressor's match-candidate table, reused across
// calls through tablePool instead of allocated (and zeroed) per block.
// An entry holds base + position + 1 of the last position that hashed
// to its bucket, so every entry written before the current call is at
// most base: the candidate it decodes to is negative and is rejected
// exactly like an empty (zero) entry. After each call base moves past
// the call's positions, which invalidates the whole table without
// touching it; only when base would overflow int32 is the table zeroed
// and base reset to 0.
type hashTable struct {
	entries [1 << hashLog]int32
	base    int32
}

var tablePool = sync.Pool{New: func() any { return new(hashTable) }}

// Compress appends the LZ4 block encoding of src to dst and returns
// the extended slice. An empty src yields an empty block. The output
// depends only on src.
func Compress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	if len(src) < mfLimit+minMatch {
		return emitLastLiterals(dst, src)
	}
	t := tablePool.Get().(*hashTable)
	dst = t.compress(dst, src)
	tablePool.Put(t)
	return dst
}

func (t *hashTable) compress(dst, src []byte) []byte {
	if len(src) >= math.MaxInt32-int(t.base) {
		clear(t.entries[:])
		t.base = 0
	}
	table, base := &t.entries, int(t.base)
	t.base += int32(len(src))
	anchor := 0
	pos := 0
	limit := len(src) - mfLimit
	for pos < limit {
		seq := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(seq)
		cand := int(table[h]) - base - 1
		table[h] = int32(base + pos + 1)
		if cand < 0 || pos-cand > maxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			pos++
			continue
		}
		// Extend the match forward; it must stop short of the final
		// literal region. While eight bytes fit, compare a word at a
		// time: the lowest set bit of the XOR of two little-endian
		// words lies in the first byte that differs.
		offset := pos - cand
		matchEnd := pos + minMatch
		hardEnd := len(src) - lastLiterals
		for matchEnd < hardEnd {
			if matchEnd+8 > hardEnd {
				if src[matchEnd] != src[matchEnd-offset] {
					break
				}
				matchEnd++
				continue
			}
			if x := binary.LittleEndian.Uint64(src[matchEnd:]) ^ binary.LittleEndian.Uint64(src[matchEnd-offset:]); x != 0 {
				matchEnd += bits.TrailingZeros64(x) / 8
				break
			}
			matchEnd += 8
		}
		// Extend the match backwards over pending literals.
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
		}
		dst = emitSequence(dst, src[anchor:pos], offset, matchEnd-pos)
		pos = matchEnd
		anchor = pos
		if pos < limit && pos >= 2 {
			// Prime the table with an interior position to improve
			// the next search, as the reference implementation does.
			mid := pos - 2
			table[hash4(binary.LittleEndian.Uint32(src[mid:]))] = int32(base + mid + 1)
		}
	}
	return emitLastLiterals(dst, src[anchor:])
}

func emitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	mlCode := matchLen - minMatch
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlCode >= 15 {
		token |= 15
	} else {
		token |= byte(mlCode)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if mlCode >= 15 {
		dst = appendLenExt(dst, mlCode-15)
	}
	return dst
}

func emitLastLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= 15 {
		dst = append(dst, 15<<4)
		dst = appendLenExt(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// Decompress decodes an LZ4 block into dst, which must be exactly the
// original length, and returns the number of bytes written. Short
// literal runs and matches move as 16-byte words that may write past
// their sequence's end, so only the decoded dst[:n] is defined: on
// error, or past n in a longer dst, the bytes are unspecified.
// Successful decompressions report their output size to the
// process-wide observability registry (bytes_decompressed).
func Decompress(dst, src []byte) (int, error) {
	n, err := decompress(dst, src)
	if err == nil {
		obs.BytesDecompressed.Add(int64(n))
	}
	return n, err
}

func decompress(dst, src []byte) (int, error) {
	if len(src) == 0 {
		return 0, nil
	}
	d := 0
	s := 0
	for {
		if s >= len(src) {
			return 0, ErrCorrupt
		}
		token := src[s]
		s++
		// Literals. A short run (nibble < 15) with 16 bytes to spare
		// in both buffers moves as one 16-byte word; the bytes past
		// the run are overwritten by what follows it. Such a run
		// cannot end the block, and its match offset lies within the
		// 16 bytes read.
		litLen := int(token >> 4)
		if litLen < 15 && len(src)-s >= 16 && len(dst)-d >= 16 {
			*(*[16]byte)(dst[d : d+16]) = *(*[16]byte)(src[s : s+16])
			s += litLen
			d += litLen
		} else {
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
				return d, nil // final sequence: literals only
			}
			if s+2 > len(src) {
				return 0, ErrCorrupt
			}
		}
		// Match.
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
		m := d - offset
		switch {
		case offset >= 16 && matchLen <= 16 && len(dst)-d >= 16:
			// One word: the source ends at or before d, so the
			// move reads only bytes already decoded.
			*(*[16]byte)(dst[d : d+16]) = *(*[16]byte)(dst[m : m+16])
		case offset >= matchLen:
			copy(dst[d:d+matchLen], dst[m:m+matchLen])
		default:
			// Overlapping: each byte may repeat one just written.
			for i := 0; i < matchLen; i++ {
				dst[d+i] = dst[m+i]
			}
		}
		d += matchLen
	}
}

func readLenExt(src []byte, s int) (int, int, error) {
	n := 0
	for {
		if s >= len(src) {
			return 0, 0, ErrCorrupt
		}
		b := src[s]
		s++
		n += int(b)
		if b != 255 {
			return n, s, nil
		}
	}
}

func corruptOrShort(need, have int) error {
	if need > have {
		return ErrShortDst
	}
	return ErrCorrupt
}
