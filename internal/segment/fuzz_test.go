package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/tile"
)

// FuzzOpenSegment: arbitrary mutations of a valid segment — corrupted
// headers, footers, block lengths, checksums, truncations — must
// yield errors, never panics, unbounded allocations, or out-of-range
// reads. Mutants that still open cleanly must also survive having
// every block read, and a block read through the fetch path must give
// the same value or error as the demand path.
func FuzzOpenSegment(f *testing.F) {
	// Seed with a real two-tile segment, a dictionary-bearing one (a
	// low-cardinality text column), an empty one, plus targeted
	// corruptions.
	segBytes := func(tiles ...*tile.Tile) []byte {
		data, err := blockstore.ReadAll(putSegment(f, tiles...), testSeg)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := segBytes(
		buildTile(f, `{"a":1,"b":"x"}`, `{"a":2,"b":"y"}`, `{"a":3}`),
		buildTile(f, `{"c":1.5,"d":true}`, `{"c":2.5}`))
	validDict := segBytes(buildDictTile(f, 96))
	// Documents split into key parts and a residual: a big key, small
	// residual keys, non-object roots, {} and a null beside an absent key.
	big := strings.Repeat("z", 120)
	keyed := segBytes(buildTile(f, `{"big":"`+big+`","n":null,"s":1}`, `[1,2]`, `{}`,
		`{"big":"`+big+`","t":true}`, `"str"`, `{"n":"0123456789"}`))

	f.Add(valid)
	f.Add(validDict)
	f.Add(keyed)
	f.Add(segBytes())
	// A valid body under the legacy JTSEG001 magic must be rejected.
	f.Add(append([]byte("JTSEG001"), validDict[len(Magic):]...))
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("JTSEG001"))
	f.Add([]byte(MagicFooter))
	// Header corruption.
	f.Add(append([]byte("JTSEG999"), valid[8:]...))
	// Tail magic corruption.
	tailless := append([]byte(nil), valid...)
	copy(tailless[len(tailless)-8:], "XXXXXXXX")
	f.Add(tailless)
	// Footer offset pointing past EOF.
	badOff := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(badOff[len(badOff)-TailSize:], 1<<40)
	f.Add(badOff)
	// Footer length fields inflated.
	badLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badLen[len(badLen)-TailSize+8:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(badLen[len(badLen)-TailSize+12:], 0xFFFFFFFF)
	f.Add(badLen)
	// Footer checksum flipped.
	badSum := append([]byte(nil), valid...)
	badSum[len(badSum)-TailSize+16] ^= 0xFF
	f.Add(badSum)
	// A flipped byte inside the first data block.
	badBlock := append([]byte(nil), valid...)
	badBlock[len(Magic)+1] ^= 0x40
	f.Add(badBlock)
	// Truncations at structural boundaries.
	f.Add(valid[:len(Magic)])
	f.Add(valid[:len(valid)-TailSize])
	f.Add(valid[:len(valid)/2])
	// Blocks whose checksums match but whose LZ4 streams do not decode.
	badLZ4, _ := badLZ4Segment(f)
	f.Add(badLZ4)

	f.Fuzz(func(t *testing.T, data []byte) {
		store := blockstore.NewMem()
		store.Put("fuzz.seg", data)
		r, err := OpenStore(store, "fuzz.seg", bufpool.New(1<<20))
		if err != nil {
			return // rejected cleanly: the property we want
		}
		defer r.Close()
		fr, err := OpenStore(store, "fuzz.seg", bufpool.New(1<<20))
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer fr.Close()
		// The footer decoded; every declared block must now be readable
		// or fail with an error (checksum, decompression, decode) — never
		// a panic. fr reads each tile after fetching its blocks.
		for ti := 0; ti < r.NumTiles(); ti++ {
			tm := r.Tile(ti)
			_ = tm.MayContainPath("a")
			_ = tm.MayContainPath("nope")
			runs, _ := fr.PlanFetch(tileRefs(tm))
			fr.Fetch("", runs, false)
			docs, _, err := r.Docs(ti)
			fdocs, _, ferr := fr.Docs(ti)
			sameOutcome(t, fmt.Sprintf("tile %d docs", ti), docs, err, fdocs, ferr)
			if err == nil {
				for _, d := range docs {
					_ = len(d)
				}
			}
			for ci := range tm.Columns {
				col, _, err := r.Column(ti, ci)
				fcol, _, ferr := fr.Column(ti, ci)
				var v, fv []byte
				if err == nil && ferr == nil {
					v, fv = col.Serialize(), fcol.Serialize()
				}
				sameOutcome(t, fmt.Sprintf("tile %d column %d", ti, ci), v, err, fv, ferr)
				if err == nil {
					for row := 0; row < col.Len(); row++ {
						if col.IsNull(row) {
							continue
						}
						if col.Type() == keypath.TypeString {
							_ = col.StrAt(row)
						}
					}
				}
			}
		}
		st, _ := r.Stats()
		_ = st.RowCount()
		_ = r.NumRows()
		// The index the open kept rebuilds the same tiles.
		ir, err := OpenIndexed(store, "fuzz.seg", nil, r.FileSize(), r.Index())
		if err != nil {
			t.Fatalf("OpenIndexed over the open's own index: %v", err)
		}
		defer ir.Close()
		if !reflect.DeepEqual(ir.tiles, r.tiles) {
			t.Fatal("index-built tiles differ from the footer's")
		}
	})
}

// FuzzTileIndex: arbitrary bytes offered as a segment's tile index —
// the manifest carries them, so they are as untrusted as the segment —
// fail OpenIndexed with ErrCorrupt, never with a panic or an unbounded
// allocation; an index that decodes has every block and the statistics
// read or fail with an error.
func FuzzTileIndex(f *testing.F) {
	store := putSegment(f,
		buildTile(f, `{"a":1,"b":"x"}`, `{"a":2,"b":"y"}`, `{"a":3}`),
		buildDictTile(f, 96))
	size, err := store.Size(testSeg)
	if err != nil {
		f.Fatal(err)
	}
	indexOf := func(s blockstore.Store) []byte {
		r, err := OpenStore(s, testSeg, nil)
		if err != nil {
			f.Fatal(err)
		}
		defer r.Close()
		return r.Index()
	}
	valid := indexOf(store)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:blockRefSize])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	// Keyed seeds: an index whose document parts are out of key order, a
	// key's part pointing at the residual (its rows do not reassemble),
	// and the residual pointing at a key's part. (A block referenced as
	// a document part and as a column is the corpus entry in testdata.)
	footer, tiles, err := decodeIndex(valid, size)
	if err != nil || len(tiles[0].Docs) < 2 {
		f.Fatalf("seed index: %d split keys, %v", len(tiles[0].Docs), err)
	}
	edit := func(change func(tm *TileMeta)) []byte {
		ts := slices.Clone(tiles)
		ts[0].Docs = slices.Clone(ts[0].Docs)
		change(&ts[0])
		return append(appendRef(nil, footer), encodeTiles(ts)...)
	}
	f.Add(edit(func(tm *TileMeta) { tm.Docs[0], tm.Docs[1] = tm.Docs[1], tm.Docs[0] }))
	f.Add(edit(func(tm *TileMeta) { tm.Docs[0].Block = tm.Rest }))
	f.Add(edit(func(tm *TileMeta) { tm.Rest = tm.Docs[1].Block }))
	// Another segment's index: its refs fit this object, but neither its
	// blocks' checksums nor its footer's tile metadata match.
	f.Add(indexOf(putSegment(f, buildTile(f, `{"c":1.5,"d":true}`, `{"c":2.5}`))))
	// The footer ref, the tile count, and the first tile's row count
	// corrupted.
	for _, at := range []int{0, blockRefSize, blockRefSize + 4} {
		bad := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(bad[at:], 0xFFFFFFF0)
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, index []byte) {
		r, err := OpenIndexed(store, testSeg, bufpool.New(1<<20), size, index)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		defer r.Close()
		for ti := 0; ti < r.NumTiles(); ti++ {
			_ = r.Tile(ti).MayContainPath("a")
			r.Docs(ti)
			for p := 0; p <= len(r.Tile(ti).Docs); p++ {
				r.DocPartT("", ti, p, new(obs.ScanCounts))
			}
			for ci := range r.Tile(ti).Columns {
				r.Column(ti, ci)
			}
		}
		if st, err := r.Stats(); err == nil {
			_ = st.RowCount()
		}
	})
}

// sameOutcome fails t unless a demand read and a fetched read of the
// same block agree: the same error, or equal values.
func sameOutcome(t *testing.T, label string, v any, err error, fv any, ferr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(ferr) || !reflect.DeepEqual(v, fv) {
		t.Fatalf("%s: demand read gave %v, fetched read %v", label, err, ferr)
	}
}
