package segment

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bloom"
	"repro/internal/column"
	"repro/internal/keypath"
	"repro/internal/lz4"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/xxhash"
)

// WriteStore serializes the tiles into the store under name: the
// stream is built in memory and atomically published with one Put.
// Returns the object's size in bytes.
func WriteStore(store blockstore.Store, name string, tiles []*tile.Tile, st *stats.TableStats) (int64, error) {
	return putStream(store, name, func(w io.Writer) error { return Write(w, tiles, st) })
}

// putStream builds one segment stream in memory and publishes it under
// name with a single Put — the store's atomic-publish contract stands
// in for temp file + rename.
func putStream(store blockstore.Store, name string, write func(io.Writer) error) (int64, error) {
	start := time.Now()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return 0, err
	}
	if err := store.Put(name, buf.Bytes()); err != nil {
		return 0, err
	}
	obs.SegmentWriteSeconds.ObserveSince(start)
	obs.SegmentWriteBytes.Observe(float64(buf.Len()))
	return int64(buf.Len()), nil
}

// Write serializes the tiles and statistics as one segment stream:
// header, data blocks, footer, tail. Blocks are LZ4-compressed unless
// compression does not help, in which case they are stored raw.
// Dictionary-encoded text columns become two blocks — codes and the
// sorted dictionary — so readers fetch, checksum, and pool-cache each
// independently.
func Write(w io.Writer, tiles []*tile.Tile, st *stats.TableStats) error {
	bw, err := newBlockWriter(w)
	if err != nil {
		return err
	}
	metas := make([]TileMeta, len(tiles))
	for i, t := range tiles {
		tm := &metas[i]
		tm.Rows = t.NumRows()
		if tm.Docs, err = bw.block(encodeDocs(t)); err != nil {
			return fmt.Errorf("tile %d docs: %w", i, err)
		}
		cols := t.Columns()
		tm.Columns = make([]ColumnMeta, len(cols))
		for j := range cols {
			ci := &cols[j]
			cm := &tm.Columns[j]
			cm.Path = ci.Path
			cm.MinedType = ci.MinedType
			cm.StorageType = ci.StorageType
			cm.HasTypeOutliers = ci.HasTypeOutliers
			cm.Zone = zoneOf(ci.Col)
			if ci.Col.IsDict() {
				cm.HasDict = true
				if dl := ci.Col.DictLen(); dl > 0 {
					// The dictionary is sorted: min/max are its ends.
					cm.Zone.HasStrBounds = true
					cm.Zone.MinStr = ci.Col.DictEntryString(0)
					cm.Zone.MaxStr = ci.Col.DictEntryString(dl - 1)
				}
				if cm.Block, err = bw.block(ci.Col.SerializeCodes()); err != nil {
					return fmt.Errorf("tile %d column %q codes: %w", i, ci.Path, err)
				}
				if cm.Dict, err = bw.block(ci.Col.SerializeDict()); err != nil {
					return fmt.Errorf("tile %d column %q dict: %w", i, ci.Path, err)
				}
				continue
			}
			if cm.Block, err = bw.block(ci.Col.Serialize()); err != nil {
				return fmt.Errorf("tile %d column %q: %w", i, ci.Path, err)
			}
		}
		if tm.seen = t.SeenFilter(); tm.seen == nil {
			tm.seen = bloom.New(1, 0.01)
		}
	}
	return bw.finish(metas, st)
}

// blockWriter appends blocks sequentially, tracking the offset.
type blockWriter struct {
	w   *bufio.Writer
	off uint64
}

// newBlockWriter starts a segment stream with its header magic.
func newBlockWriter(w io.Writer) (*blockWriter, error) {
	bw := &blockWriter{w: bufio.NewWriterSize(w, 1<<20)}
	return bw, bw.raw([]byte(Magic))
}

// finish appends the footer block and the fixed tail, then flushes.
func (bw *blockWriter) finish(metas []TileMeta, st *stats.TableStats) error {
	footerRef, err := bw.block(encodeFooter(metas, st))
	if err != nil {
		return fmt.Errorf("footer: %w", err)
	}
	var tail [TailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], footerRef.Off)
	binary.LittleEndian.PutUint32(tail[8:], footerRef.StoredLen)
	binary.LittleEndian.PutUint32(tail[12:], footerRef.RawLen)
	binary.LittleEndian.PutUint64(tail[16:], footerRef.Sum)
	copy(tail[24:], MagicFooter)
	if err := bw.raw(tail[:]); err != nil {
		return err
	}
	return bw.w.Flush()
}

func (bw *blockWriter) raw(b []byte) error {
	n, err := bw.w.Write(b)
	bw.off += uint64(n)
	return err
}

// block compresses, checksums, and appends one payload, returning its
// ref. Incompressible payloads are stored raw: spending a failed
// compression attempt at write time is cheap, skipping a futile
// decompression on every future read is not.
func (bw *blockWriter) block(payload []byte) (BlockRef, error) {
	ref := BlockRef{Off: bw.off, RawLen: uint32(len(payload))}
	stored := payload
	ref.Codec = codecRaw
	if c := lz4.Compress(nil, payload); len(c) < len(payload) {
		stored = c
		ref.Codec = codecLZ4
	}
	ref.StoredLen = uint32(len(stored))
	ref.Sum = xxhash.Sum64(stored)
	if err := bw.raw(stored); err != nil {
		return BlockRef{}, err
	}
	return ref, nil
}

// encodeDocs flattens a tile's binary-JSON fallback documents into
// one block payload: u32 count, then u32 length + bytes per document.
func encodeDocs(t *tile.Tile) []byte {
	n := t.NumRows()
	size := 4
	for i := 0; i < n; i++ {
		size += 4 + len(t.RawBytes(i))
	}
	out := make([]byte, 0, size)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(n))
	out = append(out, tmp[:]...)
	for i := 0; i < n; i++ {
		d := t.RawBytes(i)
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(d)))
		out = append(out, tmp[:]...)
		out = append(out, d...)
	}
	return out
}

// decodeDocs splits a docs-block payload back into per-document byte
// slices (aliasing the payload, which lives in the buffer pool).
func decodeDocs(b []byte, wantRows int) ([][]byte, error) {
	if len(b) < 4 {
		return nil, corruptf("docs block of %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n != wantRows {
		return nil, corruptf("docs block holds %d documents, tile has %d rows", n, wantRows)
	}
	docs := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, corruptf("docs block truncated at document %d", i)
		}
		l := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if l < 0 || len(b) < l {
			return nil, corruptf("document %d declares %d bytes, %d remain", i, l, len(b))
		}
		docs[i] = b[:l:l]
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, corruptf("%d trailing docs-block bytes", len(b))
	}
	return docs, nil
}

// zoneOf computes the min/max/null zone map for numeric and timestamp
// columns; other types record only the null count.
func zoneOf(c *column.Column) ZoneMap {
	z := ZoneMap{NullCount: uint32(c.NullCount())}
	n := c.Len()
	switch c.Type() {
	case keypath.TypeBigInt, keypath.TypeTimestamp:
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			v := float64(c.Int(i))
			if !z.HasBounds || v < z.Min {
				z.Min = v
			}
			if !z.HasBounds || v > z.Max {
				z.Max = v
			}
			z.HasBounds = true
		}
	case keypath.TypeDouble:
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			v := c.Float(i)
			if !z.HasBounds || v < z.Min {
				z.Min = v
			}
			if !z.HasBounds || v > z.Max {
				z.Max = v
			}
			z.HasBounds = true
		}
	}
	return z
}
