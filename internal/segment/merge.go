package segment

import (
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/stats"
	"repro/internal/xxhash"
)

// MergeStore merges srcs into the store under name: the stream is
// built in memory and atomically published with one Put. Returns a
// Reader over the merged object, built as Write's is; pool is as for
// OpenStore.
//
// The merged stream is the concatenation of srcs' tiles. Stored blocks
// are copied verbatim — already-compressed, already-checksummed bytes
// move without a decompress/recompress round trip, so merge cost is
// I/O-bound on the inputs' physical size. Each source's data region
// (its blocks, which lie back to back between the header and the
// footer) is read in one request, so every block ref of the source
// moves by one constant; each block's checksum is verified in that
// buffer. The merged footer concatenates the sources' tile metadata
// (with relocated block refs) and carries the merged relation
// statistics.
func MergeStore(store blockstore.Store, name string, srcs []*Reader, pool *bufpool.Pool) (*Reader, error) {
	start := time.Now()
	// The merged object is about as large as its sources together:
	// the same data blocks, one header and tail fewer per extra source.
	size := 0
	for _, src := range srcs {
		size += int(src.fileSize)
	}
	buf := append(make([]byte, 0, size), Magic...)

	st := stats.New(0, 0)
	var metas []TileMeta
	for si, src := range srcs {
		sst, err := src.Stats()
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", si, err)
		}
		st.Merge(sst)
		data, err := src.readData()
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", si, err)
		}
		// A block at src offset off lands at base+off-len(Magic).
		base := uint64(len(buf))
		buf = append(buf, data...)
		check := func(ref BlockRef) error {
			// checkRef put the block after the header; the index could
			// still put it past the data region.
			if ref.Off+uint64(ref.StoredLen) > src.footer.Off {
				return src.corruptBlock(ref, "past the footer at %d", src.footer.Off)
			}
			stored := data[ref.Off-uint64(len(Magic)):][:ref.StoredLen]
			if sum := xxhash.Sum64(stored); sum != ref.Sum {
				return src.corruptBlock(ref, "checksum %016x, want %016x", sum, ref.Sum)
			}
			return nil
		}
		for ti := range src.tiles {
			tm := src.tiles[ti] // shallow copy; seen filter is shared read-only
			tm.Docs = append([]DocPart(nil), tm.Docs...)
			tm.Columns = append([]ColumnMeta(nil), tm.Columns...)
			for _, dp := range tm.Docs {
				if err := check(dp.Block); err != nil {
					return nil, fmt.Errorf("source %d tile %d docs %q: %w", si, ti, dp.Key, err)
				}
			}
			if err := check(tm.Rest); err != nil {
				return nil, fmt.Errorf("source %d tile %d docs: %w", si, ti, err)
			}
			for j := range tm.Columns {
				cm := &tm.Columns[j]
				if err := check(cm.Block); err != nil {
					return nil, fmt.Errorf("source %d tile %d column %q: %w", si, ti, cm.Path, err)
				}
				if cm.HasDict {
					if err := check(cm.Dict); err != nil {
						return nil, fmt.Errorf("source %d tile %d column %q dict: %w", si, ti, cm.Path, err)
					}
				}
			}
			tm.shift(base - uint64(len(Magic)))
			metas = append(metas, tm)
		}
	}

	seg, index := appendFooter(buf, metas, st.MarshalBinary())
	return publish(store, name, seg, index, st, pool, start)
}

// readData reads the segment's data region — every block but the
// footer, [len(Magic), footer offset) — in one ranged read, with
// transient retries.
func (r *Reader) readData() ([]byte, error) {
	n := int64(r.footer.Off) - int64(len(Magic))
	if n == 0 {
		return nil, nil
	}
	data, _, err := blockstore.ReadRangeRetry(r.store, r.name, int64(len(Magic)), n)
	if err != nil {
		if blockstore.IsNotExist(err) || isShortRead(err) {
			return nil, corruptf("%s: data [%d,+%d): truncated or missing: %v", r.name, len(Magic), n, err)
		}
		return nil, fmt.Errorf("segment %s: data [%d,+%d): %w", r.name, len(Magic), n, err)
	}
	return data, nil
}
