package segment

import (
	"context"
	"encoding/binary"
	"runtime"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bloom"
	"repro/internal/bufpool"
	"repro/internal/lz4"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/xxhash"
)

// WriteStore serializes the tiles into the store under name: the
// stream is built in memory and atomically published with one Put.
// Returns the object's size in bytes.
func WriteStore(store blockstore.Store, name string, tiles []*tile.Tile, st *stats.TableStats) (int64, error) {
	r, err := Write(store, name, tiles, st, nil)
	if err != nil {
		return 0, err
	}
	r.Close()
	return r.FileSize(), nil
}

// Write is WriteStore returning a Reader over the new object, built
// from what was just encoded — its tile index and st — with no read
// back. pool is as for OpenStore.
func Write(store blockstore.Store, name string, tiles []*tile.Tile, st *stats.TableStats, pool *bufpool.Pool) (*Reader, error) {
	start := time.Now()
	seg, index := encode(tiles, st, runtime.GOMAXPROCS(0))
	return publish(store, name, seg, index, st, pool, start)
}

// publish puts one segment stream under name — the store's
// atomic-publish contract stands in for temp file + rename — and
// returns its Reader.
func publish(store blockstore.Store, name string, seg, index []byte, st *stats.TableStats, pool *bufpool.Pool, start time.Time) (*Reader, error) {
	if err := store.Put(name, seg); err != nil {
		return nil, err
	}
	obs.SegmentWriteSeconds.ObserveSince(start)
	obs.SegmentWriteBytes.Observe(float64(len(seg)))
	r, err := OpenIndexed(store, name, pool, int64(len(seg)), index)
	if err != nil {
		return nil, err
	}
	r.stats = st
	return r, nil
}

// encode serializes the tiles and statistics as one segment stream:
// header, data blocks, footer, tail. Each tile is one morsel on up to
// `workers` participants (sched.For): its docs, column and dictionary
// blocks are serialized, compressed and checksummed into a buffer of
// its own, with offsets relative to that buffer. The writer then only
// shifts the offsets, concatenates the buffers in tile order and adds
// the footer, so the stream does not depend on how the morsels ran.
// It also returns the stream's tile index.
func encode(tiles []*tile.Tile, st *stats.TableStats, workers int) (seg, index []byte) {
	parts := make([]blockWriter, len(tiles))
	metas := make([]TileMeta, len(tiles))
	sched.For(context.Background(), len(tiles), workers, func(_, i int) {
		metas[i] = parts[i].tile(tiles[i])
	})
	data := 0
	for i := range parts {
		metas[i].shift(uint64(len(Magic) + data))
		data += len(parts[i].buf)
	}
	footer := blockWriter{base: uint64(len(Magic) + data)}
	tail, index := footer.footer(metas, st)
	out := make([]byte, 0, len(Magic)+data+len(footer.buf)+len(tail))
	out = append(out, Magic...)
	for i := range parts {
		out = append(out, parts[i].buf...)
	}
	out = append(out, footer.buf...)
	return append(out, tail...), index
}

// blockWriter appends compressed, checksummed blocks to an in-memory
// buffer. Block offsets are base plus the position in buf.
type blockWriter struct {
	base uint64
	buf  []byte
}

// tile encodes one tile's blocks — its document parts first (each
// split key's, then the residual; docsplit.go), then each column's
// block (a dictionary column's codes, then its dictionary) — and
// returns the tile's metadata. Dictionary-encoded text columns become
// two blocks so readers fetch, checksum, and pool-cache each
// independently. buf is sized once from the payloads.
func (bw *blockWriter) tile(t *tile.Tile) TileMeta {
	cols := t.Columns()
	keys, payloads := splitDocs(t)
	for j := range cols {
		if c := cols[j].Col; c.IsDict() {
			payloads = append(payloads, c.SerializeCodes(), c.SerializeDict())
		} else {
			payloads = append(payloads, c.Serialize())
		}
	}
	size := 0
	for _, p := range payloads {
		size += lz4.CompressBound(len(p))
	}
	bw.buf = make([]byte, 0, size)

	tm := TileMeta{Rows: t.NumRows(), Docs: make([]DocPart, len(keys)), Columns: make([]ColumnMeta, len(cols))}
	for p, k := range keys {
		tm.Docs[p] = DocPart{Key: k, Block: bw.block(payloads[p])}
	}
	tm.Rest = bw.block(payloads[len(keys)])
	payloads = payloads[len(keys)+1:]
	for j := range cols {
		ci := &cols[j]
		cm := &tm.Columns[j]
		cm.Path = ci.Path
		cm.MinedType = ci.MinedType
		cm.StorageType = ci.StorageType
		cm.HasTypeOutliers = ci.HasTypeOutliers
		cm.Block, payloads = bw.block(payloads[0]), payloads[1:]
		if ci.Col.IsDict() {
			cm.HasDict = true
			cm.Dict, payloads = bw.block(payloads[0]), payloads[1:]
		}
	}
	if tm.seen = t.SeenFilter(); tm.seen == nil {
		tm.seen = bloom.New(1, 0.01)
	}
	return tm
}

// shift moves every block ref of the tile by off bytes.
func (tm *TileMeta) shift(off uint64) {
	for p := range tm.Docs {
		tm.Docs[p].Block.Off += off
	}
	tm.Rest.Off += off
	for j := range tm.Columns {
		cm := &tm.Columns[j]
		cm.Block.Off += off
		if cm.HasDict {
			cm.Dict.Off += off
		}
	}
}

// footer appends the footer block and returns the fixed tail that
// follows it and the segment's tile index.
func (bw *blockWriter) footer(metas []TileMeta, st *stats.TableStats) (tail, index []byte) {
	meta := encodeTiles(metas)
	sb := st.MarshalBinary()
	payload := binary.LittleEndian.AppendUint32(meta[:len(meta):len(meta)], uint32(len(sb)))
	ref := bw.block(append(payload, sb...))
	tail = make([]byte, TailSize)
	binary.LittleEndian.PutUint64(tail[0:], ref.Off)
	binary.LittleEndian.PutUint32(tail[8:], ref.StoredLen)
	binary.LittleEndian.PutUint32(tail[12:], ref.RawLen)
	binary.LittleEndian.PutUint64(tail[16:], ref.Sum)
	copy(tail[24:], MagicFooter)
	return tail, append(appendRef(nil, ref), meta...)
}

// block compresses, checksums, and appends one payload, returning its
// ref. Incompressible payloads are stored raw: spending a failed
// compression attempt at write time is cheap, skipping a futile
// decompression on every future read is not.
func (bw *blockWriter) block(payload []byte) BlockRef {
	at := len(bw.buf)
	ref := BlockRef{Off: bw.base + uint64(at), RawLen: uint32(len(payload)), Codec: codecLZ4}
	if bw.buf = lz4.Compress(bw.buf, payload); len(bw.buf)-at >= len(payload) {
		bw.buf = append(bw.buf[:at], payload...)
		ref.Codec = codecRaw
	}
	stored := bw.buf[at:]
	ref.StoredLen = uint32(len(stored))
	ref.Sum = xxhash.Sum64(stored)
	return ref
}

// decodeDocs splits a document part's payload back into per-document
// byte slices (aliasing the payload, which lives in the buffer pool);
// an empty slice is a document the part holds nothing of.
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
