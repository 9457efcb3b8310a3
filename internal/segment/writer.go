package segment

import (
	"context"
	"encoding/binary"
	"runtime"
	"slices"
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
	r, err := Write(store, name, tiles, st, nil, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	r.Close()
	return r.FileSize(), nil
}

// Write is WriteStore returning a Reader over the new object, built
// from what was just encoded — its tile index and st — with no read
// back. pool is as for OpenStore; the encoding runs on up to workers
// participants.
func Write(store blockstore.Store, name string, tiles []*tile.Tile, st *stats.TableStats, pool *bufpool.Pool, workers int) (*Reader, error) {
	start := time.Now()
	seg, index := encode(tiles, st, workers)
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

// splitRun is the documents one morsel of the document split handles.
const splitRun = 256

// parallelFor is sched.For; a test counts the morsels of an encoding.
var parallelFor = sched.For

// encode serializes the tiles and statistics as one segment stream:
// header, data blocks — each tile's document parts (each split key's,
// then the residual), then each column's (a dictionary column's codes,
// then its dictionary: read and cached apart) — footer, tail, and
// returns its tile index. On up to `workers` participants, across all
// tiles: each run of splitRun documents counts its top-level keys
// (docsplit.go) while each column serializes and the statistics
// marshal; each run writes its parts; each block, largest first,
// compresses its payload (a document part its runs join in the
// worker's scratch) into a region of one buffer, lz4.CompressBound of
// its length. Closing the regions up in stream order makes the stream
// independent of how the morsels ran.
func encode(tiles []*tile.Tile, st *stats.TableStats, workers int) (seg, index []byte) {
	ctx := context.Background()
	runs := make([][]docRun, len(tiles))
	keys := make([][]string, len(tiles))
	cols := make([][][]byte, len(tiles)) // per tile: its column blocks' payloads
	var sb []byte
	count := []func(){func() { sb = st.MarshalBinary() }}
	var write []func()
	for k, t := range tiles {
		for lo := 0; lo == 0 || lo < t.NumRows(); lo += splitRun {
			runs[k] = append(runs[k], docRun{lo: lo, hi: min(lo+splitRun, t.NumRows())})
		}
		for r := range runs[k] {
			run := &runs[k][r]
			count = append(count, func() { run.count(t) })
			write = append(write, func() { run.write(t, keys[k]) })
		}
		for _, ci := range t.Columns() {
			at := len(cols[k])
			if c := ci.Col; c.Dict {
				cols[k] = append(cols[k], nil, nil)
				count = append(count, func() { cols[k][at], cols[k][at+1] = c.SerializeCodes(), c.SerializeDict() })
			} else {
				cols[k] = append(cols[k], nil)
				count = append(count, func() { cols[k][at] = c.Serialize() })
			}
		}
	}
	parallelFor(ctx, len(count), workers, func(_, i int) { count[i]() })
	for k := range tiles {
		keys[k] = splitKeys(runs[k])
	}
	parallelFor(ctx, len(write), workers, func(_, i int) { write[i]() })

	type block struct {
		ref     *BlockRef
		payload []byte   // a column block's
		runs    []docRun // a document part's runs, and the part
		part    int
		size    int // the payload's length
		at      int // the region's offset
	}
	var blocks []block
	metas := make([]TileMeta, len(tiles))
	for k, t := range tiles {
		tc := t.Columns()
		tm := &metas[k]
		*tm = TileMeta{Rows: t.NumRows(), Docs: make([]DocPart, len(keys[k])), Columns: make([]ColumnMeta, len(tc))}
		for p, key := range keys[k] {
			tm.Docs[p].Key = key
			blocks = append(blocks, block{ref: &tm.Docs[p].Block, runs: runs[k], part: p})
		}
		blocks = append(blocks, block{ref: &tm.Rest, runs: runs[k], part: len(keys[k])})
		payloads := cols[k]
		for j := range tc {
			ci, cm := &tc[j], &tm.Columns[j]
			cm.Path = ci.Path
			cm.MinedType = ci.MinedType
			cm.StorageType = ci.StorageType
			cm.HasTypeOutliers = ci.HasTypeOutliers
			blocks, payloads = append(blocks, block{ref: &cm.Block, payload: payloads[0]}), payloads[1:]
			if cm.HasDict = ci.Col.Dict; cm.HasDict {
				blocks, payloads = append(blocks, block{ref: &cm.Dict, payload: payloads[0]}), payloads[1:]
			}
		}
		if tm.seen = t.SeenFilter(); tm.seen == nil {
			tm.seen = bloom.New(1, 0.01)
		}
	}
	end := len(Magic)
	for i := range blocks {
		b := &blocks[i]
		if b.size = len(b.payload); b.runs != nil {
			b.size = 4
			for _, r := range b.runs {
				b.size += len(r.parts[b.part]) - 4
			}
		}
		b.at, end = end, end+lz4.CompressBound(b.size)
	}
	buf := make([]byte, end)
	copy(buf, Magic)
	bySize := slices.Clone(blocks)
	slices.SortFunc(bySize, func(a, b block) int { return b.size - a.size })
	scratch := make([][]byte, max(workers, 1))
	parallelFor(ctx, len(bySize), workers, func(w, i int) {
		b := &bySize[i]
		payload := b.payload
		if b.runs != nil {
			payload = binary.LittleEndian.AppendUint32(slices.Grow(scratch[w][:0], b.size), uint32(b.runs[len(b.runs)-1].hi))
			for _, r := range b.runs {
				payload = append(payload, r.parts[b.part][4:]...)
			}
			scratch[w] = payload
		}
		_, *b.ref = appendBlock(buf[b.at:b.at:b.at+lz4.CompressBound(b.size)], payload)
	})
	end = len(Magic)
	for _, b := range blocks {
		b.ref.Off = uint64(end)
		end += copy(buf[end:], buf[b.at:b.at+int(b.ref.StoredLen)])
	}
	return appendFooter(buf[:end], metas, sb)
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

// appendFooter appends the footer block — the tiles' metadata, then
// sb, the marshalled relation statistics — and the fixed tail that
// follows it to dst, and returns the extended slice and the segment's
// tile index.
func appendFooter(dst []byte, metas []TileMeta, sb []byte) (seg, index []byte) {
	meta := encodeTiles(metas)
	payload := binary.LittleEndian.AppendUint32(meta[:len(meta):len(meta)], uint32(len(sb)))
	dst, ref := appendBlock(dst, append(payload, sb...))
	tail := make([]byte, TailSize)
	binary.LittleEndian.PutUint64(tail[0:], ref.Off)
	binary.LittleEndian.PutUint32(tail[8:], ref.StoredLen)
	binary.LittleEndian.PutUint32(tail[12:], ref.RawLen)
	binary.LittleEndian.PutUint64(tail[16:], ref.Sum)
	copy(tail[24:], MagicFooter)
	return append(dst, tail...), append(appendRef(nil, ref), meta...)
}

// appendBlock compresses and checksums one payload onto dst, returning
// the extended slice and the block's ref, at offset len(dst).
// Incompressible payloads are stored raw: spending a failed
// compression attempt at write time is cheap, skipping a futile
// decompression on every future read is not.
func appendBlock(dst, payload []byte) ([]byte, BlockRef) {
	at := len(dst)
	ref := BlockRef{Off: uint64(at), RawLen: uint32(len(payload)), Codec: codecLZ4}
	if dst = lz4.Compress(dst, payload); len(dst)-at >= len(payload) {
		dst = append(dst[:at], payload...)
		ref.Codec = codecRaw
	}
	stored := dst[at:]
	ref.StoredLen = uint32(len(stored))
	ref.Sum = xxhash.Sum64(stored)
	return dst, ref
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
