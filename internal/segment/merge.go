package segment

import (
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/stats"
)

// MergeStore merges srcs into the store under name: the stream is
// built in memory and atomically published with one Put. Returns a
// Reader over the merged object, built as Write's is; pool is as for
// OpenStore.
//
// The merged stream is the concatenation of srcs' tiles. Stored blocks
// are copied verbatim — already-compressed, already-checksummed bytes
// move without a decompress/recompress round trip, so merge cost is
// I/O-bound on the inputs' physical size. The merged footer
// concatenates the sources' tile metadata (with relocated block refs)
// and carries the merged relation statistics.
func MergeStore(store blockstore.Store, name string, srcs []*Reader, pool *bufpool.Pool) (*Reader, error) {
	start := time.Now()
	// The merged object is about as large as its sources together:
	// the same data blocks, one header and tail fewer per extra source.
	size := 0
	for _, src := range srcs {
		size += int(src.fileSize)
	}
	bw := blockWriter{buf: make([]byte, 0, size)}
	bw.buf = append(bw.buf, Magic...)
	copyBlock := func(src *Reader, ref BlockRef) (BlockRef, error) {
		stored, err := src.readStored(ref)
		if err != nil {
			return BlockRef{}, err
		}
		ref.Off = uint64(len(bw.buf))
		bw.buf = append(bw.buf, stored...)
		return ref, nil
	}

	st := stats.New(0, 0)
	var metas []TileMeta
	for si, src := range srcs {
		sst, err := src.Stats()
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", si, err)
		}
		st.Merge(sst)
		for ti := range src.tiles {
			tm := src.tiles[ti] // shallow copy; seen filter is shared read-only
			tm.Columns = append([]ColumnMeta(nil), tm.Columns...)
			if tm.Docs, err = copyBlock(src, tm.Docs); err != nil {
				return nil, fmt.Errorf("source %d tile %d docs: %w", si, ti, err)
			}
			for j := range tm.Columns {
				cm := &tm.Columns[j]
				if cm.Block, err = copyBlock(src, cm.Block); err != nil {
					return nil, fmt.Errorf("source %d tile %d column %q: %w", si, ti, cm.Path, err)
				}
				if cm.HasDict {
					if cm.Dict, err = copyBlock(src, cm.Dict); err != nil {
						return nil, fmt.Errorf("source %d tile %d column %q dict: %w", si, ti, cm.Path, err)
					}
				}
			}
			metas = append(metas, tm)
		}
	}

	tail, index := bw.footer(metas, st)
	return publish(store, name, append(bw.buf, tail...), index, st, pool, start)
}
