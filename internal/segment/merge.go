package segment

import (
	"fmt"
	"io"

	"repro/internal/blockstore"
	"repro/internal/stats"
)

// MergeStore merges srcs into the store under name (see Merge): the
// stream is built in memory and atomically published with one Put.
// Returns the object's size in bytes.
func MergeStore(store blockstore.Store, name string, srcs []*Reader) (int64, error) {
	return putStream(store, name, func(w io.Writer) error { return Merge(w, srcs) })
}

// Merge serializes the concatenation of srcs' tiles to w as one
// segment stream. Stored blocks are
// copied verbatim — already-compressed, already-checksummed bytes move
// without a decompress/recompress round trip, so merge cost is
// I/O-bound on the inputs' physical size. The merged footer
// concatenates the sources' tile metadata (with relocated block refs)
// and carries the merged relation statistics.
func Merge(w io.Writer, srcs []*Reader) error {
	bw, err := newBlockWriter(w)
	if err != nil {
		return err
	}
	copyBlock := func(src *Reader, ref BlockRef) (BlockRef, error) {
		stored, err := src.readStored(ref)
		if err != nil {
			return BlockRef{}, err
		}
		out := ref
		out.Off = bw.off
		if err := bw.raw(stored); err != nil {
			return BlockRef{}, err
		}
		return out, nil
	}

	st := stats.New(0, 0)
	var metas []TileMeta
	for si, src := range srcs {
		st.Merge(src.Stats())
		for ti := range src.tiles {
			tm := src.tiles[ti] // shallow copy; seen filter is shared read-only
			tm.Columns = append([]ColumnMeta(nil), tm.Columns...)
			if tm.Docs, err = copyBlock(src, tm.Docs); err != nil {
				return fmt.Errorf("source %d tile %d docs: %w", si, ti, err)
			}
			for j := range tm.Columns {
				cm := &tm.Columns[j]
				if cm.Block, err = copyBlock(src, cm.Block); err != nil {
					return fmt.Errorf("source %d tile %d column %q: %w", si, ti, cm.Path, err)
				}
				if cm.HasDict {
					if cm.Dict, err = copyBlock(src, cm.Dict); err != nil {
						return fmt.Errorf("source %d tile %d column %q dict: %w", si, ti, cm.Path, err)
					}
				}
			}
			metas = append(metas, tm)
		}
	}

	return bw.finish(metas, st)
}
