// Package segment implements the on-disk persistence format for JSON
// tiles. A segment is a single file holding a whole relation: every
// tile's extracted columns and binary-JSON fallback as independently
// compressed, checksummed blocks, plus a footer with the tile headers
// (extracted paths, seen-paths bloom filters, zone maps) and the
// relation statistics.
//
// The layout mirrors how the paper's host system pages tiles through
// its buffer manager (§4.2: "JSON tiles are stored in a way that
// allows for an efficient scan... the metadata is stored separately
// from the data"): everything a query needs *before* touching data —
// tile skipping, column resolution, optimizer statistics — lives in
// the footer, so opening a segment reads the header, the fixed-size
// tail, and one footer block. Data blocks are then fetched lazily,
// only for the tiles that survive skipping and only for the columns
// the query accesses.
//
//	┌──────────────────────────────────────────────────────────┐
//	│ header magic "JTSEG002"                          8 bytes │
//	├──────────────────────────────────────────────────────────┤
//	│ block 0 │ block 1 │ ...            (LZ4 or raw, no gaps) │
//	│   per tile: one block per extracted column,              │
//	│   one block for the JSONB fallback documents             │
//	├──────────────────────────────────────────────────────────┤
//	│ footer block (LZ4): tile metadata, zone maps,            │
//	│   bloom filters, block refs, relation statistics         │
//	├──────────────────────────────────────────────────────────┤
//	│ tail: footer off u64, stored u32, raw u32, sum u64,      │
//	│       magic "JTSEGFTR"                          32 bytes │
//	└──────────────────────────────────────────────────────────┘
//
// Every block (footer included) carries an XXH64 checksum of its
// stored bytes, verified on every read before decompression.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bloom"
	"repro/internal/keypath"
	"repro/internal/lz4"
	"repro/internal/stats"
)

const (
	// Magic opens the file; MagicFooter closes it. Both are 8 bytes so
	// a truncated or misdirected file fails before any length field is
	// trusted.
	Magic       = "JTSEG002"
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

// ZoneMap is the per-column min/max/null summary used for tile
// pruning on numeric predicates. Bounds are stored as float64
// (timestamp microseconds stay exact below 2^53, beyond any
// representable date).
type ZoneMap struct {
	HasBounds bool
	Min, Max  float64
	NullCount uint32

	// String bounds (dictionary columns): the first and last entry
	// of the sorted dictionary — min/max fall straight out of the
	// dictionary order, no scan needed.
	HasStrBounds bool
	MinStr       string
	MaxStr       string
}

// ColumnMeta describes one extracted column of one tile.
type ColumnMeta struct {
	Path            string
	MinedType       keypath.ValueType
	StorageType     keypath.ValueType
	HasTypeOutliers bool
	Block           BlockRef
	Zone            ZoneMap

	// HasDict marks a dictionary-encoded text column: Block holds
	// the per-row codes (column.SerializeCodes) and Dict the sorted
	// distinct-value arena (column.SerializeDict), each its own
	// checksummed, pool-cached block shared per tile.
	HasDict bool
	Dict    BlockRef
}

// TileMeta is the footer's record of one tile: everything needed for
// tile skipping and column resolution without reading a data block.
type TileMeta struct {
	Rows    int
	Docs    BlockRef
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

func (tm *TileMeta) buildIndex() {
	tm.byPath = make(map[string][]int, len(tm.Columns))
	for i, c := range tm.Columns {
		tm.byPath[c.Path] = append(tm.byPath[c.Path], i)
	}
}

// footer is the decoded footer payload.
type footer struct {
	tiles []TileMeta
	stats *stats.TableStats
}

// encodeFooter serializes tile metadata and relation statistics into
// the (pre-compression) footer payload.
func encodeFooter(tiles []TileMeta, st *stats.TableStats) []byte {
	var out []byte
	var tmp [8]byte
	pu32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		out = append(out, tmp[:4]...)
	}
	pu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	pref := func(r BlockRef) {
		pu64(r.Off)
		pu32(r.StoredLen)
		pu32(r.RawLen)
		out = append(out, r.Codec)
		pu64(r.Sum)
	}

	pu32(uint32(len(tiles)))
	for i := range tiles {
		tm := &tiles[i]
		pu32(uint32(tm.Rows))
		pref(tm.Docs)
		pu32(uint32(len(tm.Columns)))
		for _, c := range tm.Columns {
			pu32(uint32(len(c.Path)))
			out = append(out, c.Path...)
			out = append(out, byte(c.MinedType), byte(c.StorageType))
			if c.HasTypeOutliers {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			pref(c.Block)
			if c.Zone.HasBounds {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			pu64(math.Float64bits(c.Zone.Min))
			pu64(math.Float64bits(c.Zone.Max))
			pu32(c.Zone.NullCount)
			if c.HasDict {
				out = append(out, 1)
				pref(c.Dict)
			} else {
				out = append(out, 0)
			}
			if c.Zone.HasStrBounds {
				out = append(out, 1)
				pu32(uint32(len(c.Zone.MinStr)))
				out = append(out, c.Zone.MinStr...)
				pu32(uint32(len(c.Zone.MaxStr)))
				out = append(out, c.Zone.MaxStr...)
			} else {
				out = append(out, 0)
			}
		}
		bits := tm.seen.Bits()
		pu32(uint32(tm.seen.K()))
		pu32(uint32(len(bits)))
		for _, w := range bits {
			pu64(w)
		}
	}
	sb := st.MarshalBinary()
	pu32(uint32(len(sb)))
	out = append(out, sb...)
	return out
}

// decodeFooter parses a footer payload, validating every length field
// against the remaining buffer so corrupt footers produce ErrCorrupt
// instead of panics or unbounded allocations.
func decodeFooter(b []byte, fileSize uint64) (*footer, error) {
	d := &footerDecoder{b: b}
	nTiles := int(d.u32())
	if d.err != nil || nTiles < 0 || nTiles > len(b) {
		return nil, corruptf("implausible tile count %d", nTiles)
	}
	f := &footer{tiles: make([]TileMeta, 0, min(nTiles, 4096))}
	for i := 0; i < nTiles; i++ {
		var tm TileMeta
		tm.Rows = int(d.u32())
		tm.Docs = d.ref()
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
			c.Zone.HasBounds = d.u8() != 0
			c.Zone.Min = math.Float64frombits(d.u64())
			c.Zone.Max = math.Float64frombits(d.u64())
			c.Zone.NullCount = d.u32()
			if c.HasDict = d.u8() != 0; c.HasDict {
				c.Dict = d.ref()
			}
			if c.Zone.HasStrBounds = d.u8() != 0; c.Zone.HasStrBounds {
				c.Zone.MinStr = d.str()
				c.Zone.MaxStr = d.str()
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
		if err := checkRef(tm.Docs, fileSize); err != nil {
			return nil, fmt.Errorf("tile %d docs: %w", i, err)
		}
		tm.buildIndex()
		f.tiles = append(f.tiles, tm)
	}
	sb := d.bytes(int(d.u32()))
	if d.err != nil {
		return nil, corruptf("truncated statistics")
	}
	st, err := stats.UnmarshalBinary(sb)
	if err != nil {
		return nil, fmt.Errorf("%w: statistics: %v", ErrCorrupt, err)
	}
	f.stats = st
	if len(d.b) != 0 {
		return nil, corruptf("%d trailing footer bytes", len(d.b))
	}
	return f, nil
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
