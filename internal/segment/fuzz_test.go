package segment

import (
	"encoding/binary"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/keypath"
	"repro/internal/tile"
)

// FuzzOpenSegment: arbitrary mutations of a valid segment — corrupted
// headers, footers, block lengths, checksums, truncations — must
// yield errors, never panics, unbounded allocations, or out-of-range
// reads. Mutants that still open cleanly must also survive having
// every block read.
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

	f.Add(valid)
	f.Add(validDict)
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

	f.Fuzz(func(t *testing.T, data []byte) {
		store := blockstore.NewMem()
		store.Put("fuzz.seg", data)
		r, err := OpenStore(store, "fuzz.seg", bufpool.New(1<<20))
		if err != nil {
			return // rejected cleanly: the property we want
		}
		defer r.Close()
		// The footer decoded; every declared block must now be readable
		// or fail with an error (checksum, decode) — never a panic.
		for ti := 0; ti < r.NumTiles(); ti++ {
			tm := r.Tile(ti)
			_ = tm.MayContainPath("a")
			_ = tm.MayContainPath("nope")
			if docs, _, err := r.Docs(ti); err == nil {
				for _, d := range docs {
					_ = len(d)
				}
			}
			for ci := range tm.Columns {
				if col, _, err := r.Column(ti, ci); err == nil {
					for row := 0; row < col.Len(); row++ {
						if col.IsNull(row) {
							continue
						}
						if col.Type() == keypath.TypeString {
							_ = col.StringBytes(row)
						}
					}
				}
			}
		}
		_ = r.Stats().RowCount()
		_ = r.NumRows()
	})
}
