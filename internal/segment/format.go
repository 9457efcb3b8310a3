// Package segment implements the on-disk persistence format for JSON
// tiles. A segment is a single file holding a whole relation: every
// tile's extracted columns and binary-JSON fallback as independently
// compressed, checksummed blocks, plus a footer with the tile headers
// (extracted paths and types, seen-paths bloom filters, block refs)
// and the relation statistics.
//
// The layout mirrors how the paper's host system pages tiles through
// its buffer manager (§4.2: "JSON tiles are stored in a way that
// allows for an efficient scan... the metadata is stored separately
// from the data"): everything a query needs *before* touching data —
// tile skipping, column resolution, optimizer statistics — lives in
// the footer, and its tile part also travels as the tile index a
// table's manifest carries (OpenIndexed). Data blocks are fetched lazily,
// only for the tiles that survive skipping and only for the columns
// and document parts the query accesses.
//
// Unlike the paper's in-memory tiles, which keep each tuple's binary
// JSON whole, a segment splits a tile's documents by top-level key
// (docsplit.go): an access whose path starts with a key reads that
// key's part, and only a whole-document read reads every part.
//
//	┌──────────────────────────────────────────────────────────┐
//	│ header magic "JTSEG004"                          8 bytes │
//	├──────────────────────────────────────────────────────────┤
//	│ block 0 │ block 1 │ ...            (LZ4 or raw, no gaps) │
//	│   per tile: one block per split top-level key (in key    │
//	│   order), one for the residual document members, then    │
//	│   one block per extracted column (two for a dictionary)  │
//	├──────────────────────────────────────────────────────────┤
//	│ footer block (LZ4): tile metadata (paths, types,         │
//	│   document keys, block refs, bloom filters), relation    │
//	│   statistics                                             │
//	├──────────────────────────────────────────────────────────┤
//	│ tail: footer off u64, stored u32, raw u32, sum u64,      │
//	│       magic "JTSEGFTR"                          32 bytes │
//	└──────────────────────────────────────────────────────────┘
//
// Every block (footer included) carries an XXH64 checksum of its
// stored bytes, verified on every read before decompression.
package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bloom"
	"repro/internal/keypath"
	"repro/internal/lz4"
	"repro/internal/stats"
)

const (
	// Magic opens the file; MagicFooter closes it. Both are 8 bytes so
	// a truncated or misdirected file fails before any length field is
	// trusted.
	Magic       = "JTSEG004"
	MagicFooter = "JTSEGFTR"

	// TailSize is the fixed-size trailer: footer offset (8), stored
	// length (4), raw length (4), checksum (8), closing magic (8).
	TailSize = 8 + 4 + 4 + 8 + 8

	// codecRaw stores bytes verbatim; codecLZ4 stores an LZ4 block.
	codecRaw = 0
	codecLZ4 = 1

	// blockRefSize is the encoded size of a BlockRef: offset (8),
	// stored length (4), raw length (4), codec (1), checksum (8).
	blockRefSize = 8 + 4 + 4 + 1 + 8
)

// ErrCorrupt reports a segment that fails structural validation:
// bad magic, impossible offsets or lengths, checksum mismatches, or
// undecodable metadata.
var ErrCorrupt = errors.New("segment: corrupt segment file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// BlockRef locates one compressed block inside the segment file.
type BlockRef struct {
	// Off is the byte offset of the stored block.
	Off uint64
	// StoredLen is the on-disk length; RawLen the decompressed length.
	StoredLen uint32
	RawLen    uint32
	// Codec is codecRaw or codecLZ4.
	Codec uint8
	// Sum is the XXH64 checksum of the stored bytes.
	Sum uint64
}

// ColumnMeta describes one extracted column of one tile.
type ColumnMeta struct {
	Path            string
	MinedType       keypath.ValueType
	StorageType     keypath.ValueType
	HasTypeOutliers bool
	Block           BlockRef

	// HasDict marks a dictionary-encoded text column: Block holds
	// the per-row codes (column.SerializeCodes) and Dict the sorted
	// distinct-value arena (column.SerializeDict), each its own
	// checksummed, pool-cached block shared per tile.
	HasDict bool
	Dict    BlockRef
}

// DocPart is the block holding one split top-level key's values of a
// tile's documents (docsplit.go).
type DocPart struct {
	Key   string
	Block BlockRef
}

// TileMeta is the footer's record of one tile: everything needed for
// tile skipping and column resolution without reading a data block.
type TileMeta struct {
	Rows int
	// Docs are the parts of the split keys, sorted by key; Rest is the
	// residual part, which holds every other member.
	Docs    []DocPart
	Rest    BlockRef
	Columns []ColumnMeta

	seen   *bloom.Filter    // seen-but-not-extracted paths
	byPath map[string][]int // extracted path -> column indexes
}

// MayContainPath mirrors tile.Tile.MayContainPath: true when the path
// is extracted or the seen-paths bloom filter matches; false
// guarantees every access yields null, enabling the skip (§4.8).
func (tm *TileMeta) MayContainPath(path string) bool {
	if _, ok := tm.byPath[path]; ok {
		return true
	}
	return tm.seen.MayContain(path)
}

// ColumnsForPath returns the indexes of all columns extracted for the
// path.
func (tm *TileMeta) ColumnsForPath(path string) []int { return tm.byPath[path] }

// DocPart returns the part of the tile's documents that holds top-level
// key: the index of its own part, or len(Docs) for the residual.
func (tm *TileMeta) DocPart(key string) int {
	p, ok := slices.BinarySearchFunc(tm.Docs, key, func(d DocPart, key string) int { return strings.Compare(d.Key, key) })
	if !ok {
		return len(tm.Docs)
	}
	return p
}

// DocRef returns the block of part p (len(Docs): the residual).
func (tm *TileMeta) DocRef(p int) BlockRef {
	if p == len(tm.Docs) {
		return tm.Rest
	}
	return tm.Docs[p].Block
}

func (tm *TileMeta) buildIndex() {
	tm.byPath = make(map[string][]int, len(tm.Columns))
	for i, c := range tm.Columns {
		tm.byPath[c.Path] = append(tm.byPath[c.Path], i)
	}
}

// encodeTiles serializes tile metadata. The footer payload is these
// bytes then the length-prefixed relation statistics; a segment's tile
// index (Reader.Index) is the footer's block ref then these bytes.
func encodeTiles(tiles []TileMeta) []byte {
	var out []byte
	pu32 := func(v uint32) { out = binary.LittleEndian.AppendUint32(out, v) }
	pu64 := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	flag := func(b bool) {
		if b {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}

	pu32(uint32(len(tiles)))
	for i := range tiles {
		tm := &tiles[i]
		pu32(uint32(tm.Rows))
		pu32(uint32(len(tm.Docs)))
		for _, dp := range tm.Docs {
			pu32(uint32(len(dp.Key)))
			out = append(out, dp.Key...)
			out = appendRef(out, dp.Block)
		}
		out = appendRef(out, tm.Rest)
		pu32(uint32(len(tm.Columns)))
		for _, c := range tm.Columns {
			pu32(uint32(len(c.Path)))
			out = append(out, c.Path...)
			out = append(out, byte(c.MinedType), byte(c.StorageType))
			flag(c.HasTypeOutliers)
			out = appendRef(out, c.Block)
			if flag(c.HasDict); c.HasDict {
				out = appendRef(out, c.Dict)
			}
		}
		bits := tm.seen.Bits()
		pu32(uint32(tm.seen.K()))
		pu32(uint32(len(bits)))
		for _, w := range bits {
			pu64(w)
		}
	}
	return out
}

func appendRef(out []byte, r BlockRef) []byte {
	out = binary.LittleEndian.AppendUint64(out, r.Off)
	out = binary.LittleEndian.AppendUint32(out, r.StoredLen)
	out = binary.LittleEndian.AppendUint32(out, r.RawLen)
	out = append(out, r.Codec)
	return binary.LittleEndian.AppendUint64(out, r.Sum)
}

// decodeTiles parses tile metadata, validating every length field
// against the remaining buffer so corrupt metadata produces ErrCorrupt
// instead of panics or unbounded allocations.
func decodeTiles(d *footerDecoder, fileSize uint64) ([]TileMeta, error) {
	nTiles := int(d.u32())
	if d.err != nil || nTiles < 0 || nTiles > len(d.b) {
		return nil, corruptf("implausible tile count %d", nTiles)
	}
	tiles := make([]TileMeta, 0, min(nTiles, 4096))
	for i := 0; i < nTiles; i++ {
		var tm TileMeta
		tm.Rows = int(d.u32())
		nParts := int(d.u32())
		if d.err != nil || nParts < 0 || nParts > len(d.b) {
			return nil, corruptf("tile %d: implausible document part count %d", i, nParts)
		}
		tm.Docs = make([]DocPart, nParts)
		for p := range tm.Docs {
			dp := &tm.Docs[p]
			dp.Key = d.str()
			dp.Block = d.ref()
			if d.err != nil {
				return nil, corruptf("tile %d document part %d: truncated", i, p)
			}
			if p > 0 && dp.Key <= tm.Docs[p-1].Key {
				return nil, corruptf("tile %d: document part %q after %q", i, dp.Key, tm.Docs[p-1].Key)
			}
			if err := checkRef(dp.Block, fileSize); err != nil {
				return nil, fmt.Errorf("tile %d docs %q: %w", i, dp.Key, err)
			}
		}
		tm.Rest = d.ref()
		nCols := int(d.u32())
		if d.err != nil || nCols < 0 || nCols > len(d.b)+1 {
			return nil, corruptf("tile %d: implausible column count %d", i, nCols)
		}
		tm.Columns = make([]ColumnMeta, 0, min(nCols, 4096))
		for j := 0; j < nCols; j++ {
			var c ColumnMeta
			c.Path = d.str()
			c.MinedType = keypath.ValueType(d.u8())
			c.StorageType = keypath.ValueType(d.u8())
			c.HasTypeOutliers = d.u8() != 0
			c.Block = d.ref()
			if c.HasDict = d.u8() != 0; c.HasDict {
				c.Dict = d.ref()
			}
			if d.err != nil {
				return nil, corruptf("tile %d column %d: truncated", i, j)
			}
			if err := checkRef(c.Block, fileSize); err != nil {
				return nil, fmt.Errorf("tile %d column %q: %w", i, c.Path, err)
			}
			if c.HasDict {
				if err := checkRef(c.Dict, fileSize); err != nil {
					return nil, fmt.Errorf("tile %d column %q dict: %w", i, c.Path, err)
				}
			}
			tm.Columns = append(tm.Columns, c)
		}
		k := int(d.u32())
		nWords := int(d.u32())
		if d.err != nil || nWords < 0 || nWords*8 > len(d.b) {
			return nil, corruptf("tile %d: implausible bloom size %d", i, nWords)
		}
		words := make([]uint64, nWords)
		for w := range words {
			words[w] = d.u64()
		}
		tm.seen = bloom.FromBits(words, k)
		if d.err != nil {
			return nil, corruptf("tile %d: truncated metadata", i)
		}
		if err := checkRef(tm.Rest, fileSize); err != nil {
			return nil, fmt.Errorf("tile %d docs: %w", i, err)
		}
		tm.buildIndex()
		tiles = append(tiles, tm)
	}
	return tiles, nil
}

// decodeIndex parses a tile index for an object of size bytes: the
// footer's ref, which must lie between the header and the tail, then
// the tile metadata, whose blocks must lie before the tail.
func decodeIndex(b []byte, size int64) (BlockRef, []TileMeta, error) {
	if size < int64(len(Magic))+TailSize {
		return BlockRef{}, nil, corruptf("object of %d bytes is smaller than header plus tail", size)
	}
	d := &footerDecoder{b: b}
	footer := d.ref() // a truncated ref fails decodeTiles if not checkRef
	if err := checkRef(footer, uint64(size)-TailSize); err != nil {
		return BlockRef{}, nil, fmt.Errorf("footer: %w", err)
	}
	tiles, err := decodeTiles(d, uint64(size)-TailSize)
	if err != nil {
		return BlockRef{}, nil, err
	}
	if len(d.b) != 0 {
		return BlockRef{}, nil, corruptf("%d trailing tile-index bytes", len(d.b))
	}
	return footer, tiles, nil
}

// decodeStats parses the relation statistics that follow the tile
// metadata in a footer payload, after checking that the payload opens
// with exactly that metadata (the tile index a Reader was built from
// must describe the segment it reads).
func decodeStats(footer, tiles []byte) (*stats.TableStats, error) {
	if !bytes.HasPrefix(footer, tiles) {
		return nil, corruptf("footer does not match the tile index")
	}
	d := &footerDecoder{b: footer[len(tiles):]}
	sb := d.bytes(int(d.u32()))
	if d.err != nil {
		return nil, corruptf("truncated statistics")
	}
	if len(d.b) != 0 {
		return nil, corruptf("%d trailing footer bytes", len(d.b))
	}
	st, err := stats.UnmarshalBinary(sb)
	if err != nil {
		return nil, fmt.Errorf("%w: statistics: %v", ErrCorrupt, err)
	}
	return st, nil
}

// checkRef rejects block refs that point outside the file or declare
// impossible lengths, before anything is read or allocated.
func checkRef(r BlockRef, fileSize uint64) error {
	if r.Codec != codecRaw && r.Codec != codecLZ4 {
		return corruptf("unknown codec %d", r.Codec)
	}
	if r.Off < uint64(len(Magic)) || r.Off+uint64(r.StoredLen) < r.Off ||
		r.Off+uint64(r.StoredLen) > fileSize {
		return corruptf("block [%d,+%d) outside file of %d bytes", r.Off, r.StoredLen, fileSize)
	}
	if r.Codec == codecRaw && r.StoredLen != r.RawLen {
		return corruptf("raw block with stored %d != raw %d", r.StoredLen, r.RawLen)
	}
	if int64(r.RawLen) > lz4.MaxDecompressedSize {
		return corruptf("block declares %d decompressed bytes", r.RawLen)
	}
	return nil
}

type footerDecoder struct {
	b   []byte
	err error
}

func (d *footerDecoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.err = ErrCorrupt
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *footerDecoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *footerDecoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *footerDecoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || len(d.b) < n {
		d.err = ErrCorrupt
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *footerDecoder) str() string { return string(d.bytes(int(d.u32()))) }

func (d *footerDecoder) ref() BlockRef {
	return BlockRef{
		Off:       d.u64(),
		StoredLen: d.u32(),
		RawLen:    d.u32(),
		Codec:     d.u8(),
		Sum:       d.u64(),
	}
}
