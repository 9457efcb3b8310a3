package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/column"
	"repro/internal/lz4"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/xxhash"
)

// Reader reads one open segment object through a block store. All
// block reads flow through the buffer pool: a miss issues a ranged
// read (with transient retries), verifies the checksum, and caches the
// stored bytes; the first Column or Docs access of a resident block
// decompresses and decodes it and leaves the decoded form in the pool
// entry, so a hit returns a shared, immutable column or document
// directory with no decode step. A Reader is safe for concurrent use.
type Reader struct {
	store    blockstore.Store
	name     string // object name within the store
	fileSize uint64
	fileID   uint64
	pool     *bufpool.Pool
	tiles    []TileMeta
	footer   BlockRef // the footer block, read for statistics only
	index    []byte   // the footer's ref and tile metadata (Index)

	statsMu sync.Mutex
	stats   *stats.TableStats // loaded on first use
}

// openTailWindow is the speculative trailing read OpenStore issues: one
// ranged read that, for most segments, covers the fixed tail and the
// whole footer block (and, for small segments, the entire object).
const openTailWindow = 64 << 10

// OpenStore opens the named segment object footer-first, for a caller
// without its tile index. No table open calls it: every manifest entry
// carries its segment's index, which OpenIndexed reads. The open costs
// a Size probe, then one speculative ranged read of the object's tail
// (covering the fixed tail, usually the footer, and for small objects
// the header too) beside the header-magic read when the window does
// not reach the object's start, plus one follow-up read when the
// footer falls outside the window.
// Tile metadata and relation statistics are then in memory; data
// blocks load lazily. The Reader does not own the store: closing the
// Reader drops its cached blocks but leaves the store open. A nil pool
// gives the Reader a private one of the default capacity.
func OpenStore(store blockstore.Store, name string, pool *bufpool.Pool) (*Reader, error) {
	size, err := store.Size(name)
	if err != nil {
		return nil, err
	}
	if size < int64(len(Magic))+TailSize {
		return nil, corruptf("%s: object of %d bytes is smaller than header plus tail", name, size)
	}
	win := min(int64(openTailWindow), size)
	winOff := size - win
	// The header magic lies inside the window for small objects;
	// otherwise it is read beside the window, not after it.
	var head []byte
	var headErr error
	headDone := make(chan struct{})
	if winOff > 0 {
		go func() {
			defer close(headDone)
			head, _, headErr = blockstore.ReadRangeRetry(store, name, 0, int64(len(Magic)))
		}()
	} else {
		close(headDone)
	}
	winBuf, _, err := blockstore.ReadRangeRetry(store, name, winOff, win)
	<-headDone
	if err != nil {
		return nil, fmt.Errorf("segment %s: open tail [%d,+%d): %w", name, winOff, win, err)
	}
	if headErr != nil {
		return nil, fmt.Errorf("segment %s: open header [0,+%d): %w", name, len(Magic), headErr)
	}
	if winOff == 0 {
		head = winBuf[:len(Magic)]
	}

	tail := winBuf[win-TailSize:]
	if string(tail[24:32]) != MagicFooter {
		return nil, corruptf("%s: bad tail magic %q in tail [%d,+%d)", name, tail[24:32], size-TailSize, TailSize)
	}
	footerRef := BlockRef{
		Off:       binary.LittleEndian.Uint64(tail[0:]),
		StoredLen: binary.LittleEndian.Uint32(tail[8:]),
		RawLen:    binary.LittleEndian.Uint32(tail[12:]),
		Sum:       binary.LittleEndian.Uint64(tail[16:]),
		Codec:     codecLZ4,
	}
	if footerRef.StoredLen == footerRef.RawLen {
		// The footer block writer stores raw when LZ4 cannot shrink it;
		// equal lengths are only produced by the raw path.
		footerRef.Codec = codecRaw
	}
	// The footer must sit between the header and the tail.
	if err := checkRef(footerRef, uint64(size)-TailSize); err != nil {
		return nil, fmt.Errorf("segment %s: footer: %w", name, err)
	}
	if string(head) != Magic {
		return nil, corruptf("%s: bad header magic %q", name, head)
	}

	// Footer block: served from the window when it fits, read
	// separately otherwise (very wide segments).
	r := &Reader{store: store, name: name}
	var footerStored []byte
	if int64(footerRef.Off) >= winOff {
		footerStored = winBuf[int64(footerRef.Off)-winOff:][:footerRef.StoredLen]
		if sum := xxhash.Sum64(footerStored); sum != footerRef.Sum {
			return nil, r.corruptBlock(footerRef, "footer checksum %016x, want %016x", sum, footerRef.Sum)
		}
	} else {
		footerStored, err = r.readStored(footerRef)
		if err != nil {
			return nil, fmt.Errorf("footer: %w", err)
		}
	}
	footer, err := r.decompress(footerRef, footerStored)
	if err != nil {
		return nil, fmt.Errorf("footer: %w", err)
	}
	d := &footerDecoder{b: footer}
	tiles, err := decodeTiles(d, uint64(size)-TailSize)
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", name, err)
	}
	meta := footer[:len(footer)-len(d.b)]
	if r.stats, err = decodeStats(footer, meta); err != nil {
		return nil, fmt.Errorf("segment %s: %w", name, err)
	}
	r.init(pool, size, footerRef, tiles, append(appendRef(nil, footerRef), meta...))
	return r, nil
}

// OpenIndexed builds a Reader for the named segment object of size
// bytes from its tile index (Index), with no store request: a table's
// manifest carries each segment's index, so a cold table opens without
// touching its segments. The relation statistics load from the footer
// on the first Stats call. A corrupt or truncated index fails with
// ErrCorrupt.
func OpenIndexed(store blockstore.Store, name string, pool *bufpool.Pool, size int64, index []byte) (*Reader, error) {
	footer, tiles, err := decodeIndex(index, size)
	if err != nil {
		return nil, fmt.Errorf("segment %s: tile index: %w", name, err)
	}
	r := &Reader{store: store, name: name}
	r.init(pool, size, footer, tiles, index)
	return r, nil
}

// init completes a Reader over its decoded metadata and registers the
// object with the pool (a private default-capacity pool when nil).
func (r *Reader) init(pool *bufpool.Pool, size int64, footer BlockRef, tiles []TileMeta, index []byte) {
	if pool == nil {
		pool = bufpool.New(0) // private: every read takes the pooled path
	}
	r.pool, r.fileSize, r.footer, r.tiles, r.index = pool, uint64(size), footer, tiles, index
	r.fileID = pool.RegisterObject(r.store.Label() + "/" + r.name)
}

// Close drops this object's resident blocks from the shared pool; the
// store stays open.
func (r *Reader) Close() error {
	r.pool.DropFile(r.fileID)
	return nil
}

// Name returns the segment's object name within its store.
func (r *Reader) Name() string { return r.name }

// NumTiles returns the number of tiles in the segment.
func (r *Reader) NumTiles() int { return len(r.tiles) }

// FileSize returns the segment object's size in bytes.
func (r *Reader) FileSize() int64 { return int64(r.fileSize) }

// Tile returns the metadata of tile i. Read-only.
func (r *Reader) Tile(i int) *TileMeta { return &r.tiles[i] }

// Index returns the segment's tile index: what OpenIndexed builds this
// Reader from. Read-only.
func (r *Reader) Index() []byte { return r.index }

// Stats returns the relation statistics persisted in the footer,
// reading the footer block on the first call when the Reader was built
// from its tile index; a failed read is returned and retried by the
// next call.
func (r *Reader) Stats() (*stats.TableStats, error) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if r.stats != nil {
		return r.stats, nil
	}
	footer, err := r.readStored(r.footer)
	if err == nil {
		footer, err = r.decompress(r.footer, footer)
	}
	if err == nil {
		r.stats, err = decodeStats(footer, r.index[blockRefSize:])
	}
	if err != nil {
		return nil, fmt.Errorf("segment %s footer: %w", r.name, err)
	}
	return r.stats, nil
}

// NumRows returns the total row count across all tiles.
func (r *Reader) NumRows() int {
	total := 0
	for i := range r.tiles {
		total += r.tiles[i].Rows
	}
	return total
}

// Column returns one extracted column. The column is decoded from its
// block payload once per buffer-pool residency and then shared by every
// caller, so it is read-only (its in-place setters panic) and costs a
// warm scan no decode and no allocation. A dictionary column costs two
// block accesses (codes + dictionary). It also returns what the read
// counted (see ColumnT).
func (r *Reader) Column(tileIdx, colIdx int) (*column.Column, obs.ScanCounts, error) {
	var c obs.ScanCounts
	col, err := r.ColumnT("", tileIdx, colIdx, &c)
	return col, c, err
}

// ColumnT is Column with the loading tenant, counting into c: cache
// misses it causes are charged against tenant's buffer-pool quota
// ("" = unattributed). The pool counts each block access's hit or miss
// (bufpool.Pool.GetAs); the Reader counts the store reads, bytes and
// retries of a miss and the block it decodes.
func (r *Reader) ColumnT(tenant string, tileIdx, colIdx int, c *obs.ScanCounts) (*column.Column, error) {
	tm := &r.tiles[tileIdx]
	cm := &tm.Columns[colIdx]
	wrap := func(err error) error { return fmt.Errorf("tile %d column %q: %w", tileIdx, cm.Path, err) }
	h, err := r.pooledBlock(tenant, cm.Block, c)
	if err != nil {
		return nil, wrap(err)
	}
	defer h.Release()
	// The dictionary block is touched on every access, decoded or not,
	// so its pool accounting and eviction age follow the codes block's.
	// It decodes to its raw bytes, which is no column decode.
	var dict []byte
	if cm.HasDict {
		dh, derr := r.pooledBlock(tenant, cm.Dict, c)
		if derr == nil {
			var dv any
			dv, derr = dh.Decoded(func(stored []byte) (any, int64, error) {
				raw, err := r.decompress(cm.Dict, stored)
				return raw, int64(len(raw)), err
			})
			dh.Release()
			dict, _ = dv.([]byte)
		}
		if derr != nil {
			return nil, fmt.Errorf("tile %d column %q dict: %w", tileIdx, cm.Path, derr)
		}
	}
	v, err := r.decoded(h, cm.Block, c, func(payload []byte) (any, int64, error) {
		var col *column.Column
		var err error
		if cm.HasDict {
			col, err = column.DeserializeDict(payload, dict, tm.Rows)
		} else {
			col, err = column.Deserialize(payload, tm.Rows)
		}
		if err != nil {
			return nil, 0, err
		}
		if col.Type() != cm.StorageType {
			return nil, 0, corruptf("%s: block [%d,+%d) decodes to type %d, footer says %d",
				r.name, cm.Block.Off, cm.Block.StoredLen, col.Type(), cm.StorageType)
		}
		return col, int64(col.SizeBytes()), nil
	})
	if err != nil {
		return nil, wrap(err)
	}
	col, ok := v.(*column.Column)
	if !ok {
		return nil, wrap(r.corruptBlock(cm.Block, "block is also a tile's documents"))
	}
	return col, nil
}

// Docs returns tile i's binary-JSON fallback documents, whole: each is
// reassembled from every part of the tile's documents (docsplit.go),
// equal byte for byte to the document the tile was written with. The
// parts' directories are pool-cached as DocPartT's are, but the
// documents are built afresh on every call; a scan reads only the parts
// its accesses name. The counts sum the parts' accesses.
func (r *Reader) Docs(tileIdx int) ([][]byte, obs.ScanCounts, error) {
	tm := &r.tiles[tileIdx]
	dirs := make([][][]byte, len(tm.Docs)+1)
	var c obs.ScanCounts
	size := 0
	for p := range dirs {
		dir, err := r.DocPartT("", tileIdx, p, &c)
		if err != nil {
			return nil, c, err
		}
		dirs[p] = dir
		size += int(tm.DocRef(p).RawLen)
	}
	var j Joiner
	docs := make([][]byte, tm.Rows)
	buf := make([]byte, 0, size)
	for i := range docs {
		at := len(buf)
		var err error
		if buf, err = j.Join(buf, tm, dirs, i); err != nil {
			return nil, c, fmt.Errorf("segment %s tile %d: %w", r.name, tileIdx, err)
		}
		docs[i] = buf[at:len(buf):len(buf)]
	}
	return docs, c, nil
}

// DocPartT returns part p of tile i's documents (TileMeta.DocPart): for
// p < len(Docs), each row's value under that part's key, empty where
// the row lacks the key; for p == len(Docs), the residual, empty where
// a row holds nothing but split keys. The directory's slices alias the
// block payload; it is built once per buffer-pool residency and shared
// by every caller. Read-only, and valid indefinitely (the payload is
// immutable and garbage-collected), but each scan should re-fetch so
// the pool sees the access. Cache misses are charged to tenant and the
// access counts into c (see ColumnT).
func (r *Reader) DocPartT(tenant string, tileIdx, p int, c *obs.ScanCounts) ([][]byte, error) {
	tm := &r.tiles[tileIdx]
	ref := tm.DocRef(p)
	wrap := func(err error) error {
		if p == len(tm.Docs) {
			return fmt.Errorf("tile %d docs: %w", tileIdx, err)
		}
		return fmt.Errorf("tile %d docs %q: %w", tileIdx, tm.Docs[p].Key, err)
	}
	h, err := r.pooledBlock(tenant, ref, c)
	if err != nil {
		return nil, wrap(err)
	}
	defer h.Release()
	v, err := r.decoded(h, ref, c, func(payload []byte) (any, int64, error) {
		docs, err := decodeDocs(payload, tm.Rows)
		// The directory aliases the payload: both stay resident.
		return docs, int64(len(payload) + len(docs)*docDirEntryBytes), err
	})
	if err != nil {
		return nil, wrap(err)
	}
	docs, ok := v.([][]byte)
	if !ok {
		return nil, wrap(r.corruptBlock(ref, "block is also a column"))
	}
	return docs, nil
}

// FetchRun is one coalesced ranged read of a planned fetch: the byte
// range and the blocks it carries.
type FetchRun struct {
	Off, Len int64
	Blocks   []BlockRef
}

// PlanFetch turns refs into the fewest store requests that make them
// pool-resident — refs already cached are dropped, the rest deduped,
// sorted, and merged within the coalescing gap — and returns the
// stored bytes the runs will add to the pool. No I/O; refs is
// reordered and the runs alias it.
func (r *Reader) PlanFetch(refs []BlockRef) (runs []FetchRun, storedBytes int64) {
	sortRefs(refs)
	uniq := refs[:0]
	var ranges []blockstore.Range
	for _, ref := range refs {
		if (len(uniq) > 0 && uniq[len(uniq)-1].Off == ref.Off) || r.pool.Contains(bufpool.Key{File: r.fileID, Off: ref.Off}) {
			continue
		}
		uniq = append(uniq, ref)
		ranges = append(ranges, blockstore.Range{Off: int64(ref.Off), Len: int64(ref.StoredLen)})
		storedBytes += int64(ref.StoredLen)
	}
	for _, run := range blockstore.Coalesce(ranges, blockstore.DefaultCoalesceGap, 0) {
		runs = append(runs, FetchRun{Off: run.Off, Len: run.Len, Blocks: uniq[:run.Blocks]})
		uniq = uniq[run.Blocks:]
	}
	return runs, storedBytes
}

// Fetch executes planned runs, all at once: each is one ranged read
// (with transient retries) whose blocks are checksum-verified and
// inserted unpinned, still compressed (the first access decodes),
// marked prefetched for prefetch-hit accounting when the fetch was
// issued ahead of the scan. Failures are not
// returned: a block whose run failed stays non-resident and the demand
// path reports the error with full context when the scan needs it.
// The fetch's counts are its store traffic (ranged reads with retries,
// bytes returned, blocks saved by coalescing) and, as pool misses, the
// blocks it made resident.
func (r *Reader) Fetch(tenant string, runs []FetchRun, prefetched bool) obs.ScanCounts {
	if len(runs) == 0 {
		return obs.ScanCounts{}
	}
	infos := make([]obs.ScanCounts, len(runs))
	var wg sync.WaitGroup
	for i := 1; i < len(runs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infos[i] = r.fetchRun(tenant, runs[i], prefetched)
		}(i)
	}
	fi := r.fetchRun(tenant, runs[0], prefetched)
	wg.Wait()
	for i := range infos[1:] {
		fi.Add(&infos[1+i])
	}
	obs.StoreReadCoalesced.Add(fi.StoreCoalesced)
	return fi
}

func (r *Reader) fetchRun(tenant string, run FetchRun, prefetched bool) obs.ScanCounts {
	buf, retries, err := blockstore.ReadRangeRetry(r.store, r.name, run.Off, run.Len)
	fi := obs.ScanCounts{StoreRangeReads: int64(1 + retries), StoreRetries: int64(retries)}
	if err != nil {
		return fi
	}
	fi.StoreBytesRead = run.Len
	fi.StoreCoalesced = int64(len(run.Blocks) - 1)
	for _, ref := range run.Blocks {
		stored := buf[int64(ref.Off)-run.Off:][:ref.StoredLen]
		if xxhash.Sum64(stored) != ref.Sum {
			continue // demand path re-reads and reports
		}
		if r.pool.Put(tenant, bufpool.Key{File: r.fileID, Off: ref.Off}, stored, prefetched) {
			fi.PoolMisses++
		}
	}
	return fi
}

// isShortRead reports a ranged read that ran past the object's end.
func isShortRead(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }

// sortRefs orders refs by offset (insertion sort: ref lists are a
// handful of blocks per tile).
func sortRefs(refs []BlockRef) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].Off < refs[j-1].Off; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// docDirEntryBytes is what one document costs in a decoded docs
// directory beyond its payload bytes: a []byte header.
const docDirEntryBytes = 24

// decoded returns a pinned block's decoded form, built on the first
// access of a pool residency by decompressing ref's stored bytes and
// running decode on the payload; a decode that runs counts into c.
func (r *Reader) decoded(h *bufpool.Handle, ref BlockRef, c *obs.ScanCounts, decode func(payload []byte) (any, int64, error)) (any, error) {
	return h.Decoded(func(stored []byte) (any, int64, error) {
		c.BlocksDecoded++
		obs.SegmentBlocksDecoded.Add(1)
		payload, err := r.decompress(ref, stored)
		if err != nil {
			return nil, 0, err
		}
		return decode(payload)
	})
}

// pooledBlock pins one block in the buffer pool, loading its verified
// stored bytes on a miss; the pool counts the access into c, the load
// its store reads, retries and bytes. The caller releases the handle.
func (r *Reader) pooledBlock(tenant string, ref BlockRef, c *obs.ScanCounts) (*bufpool.Handle, error) {
	return r.pool.GetAs(tenant, bufpool.Key{File: r.fileID, Off: ref.Off}, c, func() ([]byte, error) {
		b, retries, err := r.readStoredRetry(ref)
		c.StoreRangeReads += int64(1 + retries)
		c.StoreRetries += int64(retries)
		if err == nil {
			c.StoreBytesRead += int64(ref.StoredLen)
		}
		return b, err
	})
}

// corruptBlock builds an ErrCorrupt with the object name and byte
// range every corruption report must carry (remote stores serve many
// objects; "block at 4096" without a name is undebuggable).
func (r *Reader) corruptBlock(ref BlockRef, format string, args ...any) error {
	prefix := fmt.Sprintf("%s: block [%d,+%d): ", r.name, ref.Off, ref.StoredLen)
	return corruptf(prefix+format, args...)
}

// readStored reads and checksum-verifies one block's stored bytes
// without decompressing. Transient store errors are retried with
// backoff before failing.
func (r *Reader) readStored(ref BlockRef) ([]byte, error) {
	b, _, err := r.readStoredRetry(ref)
	return b, err
}

func (r *Reader) readStoredRetry(ref BlockRef) ([]byte, int, error) {
	stored, retries, err := blockstore.ReadRangeRetry(r.store, r.name, int64(ref.Off), int64(ref.StoredLen))
	if err != nil {
		if blockstore.IsNotExist(err) || isShortRead(err) {
			return nil, retries, r.corruptBlock(ref, "truncated or missing: %v", err)
		}
		return nil, retries, fmt.Errorf("segment %s: block [%d,+%d): %w", r.name, ref.Off, ref.StoredLen, err)
	}
	if sum := xxhash.Sum64(stored); sum != ref.Sum {
		return nil, retries, r.corruptBlock(ref, "checksum %016x, want %016x", sum, ref.Sum)
	}
	return stored, retries, nil
}

// decompress returns one verified stored block's raw bytes.
func (r *Reader) decompress(ref BlockRef, stored []byte) ([]byte, error) {
	if ref.Codec == codecRaw {
		return stored, nil
	}
	raw, err := lz4.DecompressAlloc(stored, int(ref.RawLen))
	if err != nil {
		return nil, r.corruptBlock(ref, "lz4: %v", err)
	}
	return raw, nil
}
