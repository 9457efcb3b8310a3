package lz4_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/lz4"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// TestCompressJSONBBlocks: on the documents blocks a flush writes — the
// 2048-document twitter, TPC-H and Yelp batches of BenchmarkFlush, in
// tiles of 1024 JSONB documents laid out as the segment writer lays
// them out — the compressor's output is the byte-loop reference's.
func TestCompressJSONBBlocks(t *testing.T) {
	const batch = 2048
	tw := twitter.Generate(twitter.Config{Tweets: batch, DeleteRatio: 0.4, Seed: 1})
	tp, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1})
	u := batch/14 + 1
	yl, _ := yelp.Generate(yelp.Config{Businesses: u, Users: 2 * u, Reviews: 8 * u, Tips: 2 * u, Checkins: u, Seed: 1})
	for name, lines := range map[string][][]byte{"twitter": tw[:batch], "tpch": tp[len(tp)-batch:], "yelp": yl[:batch]} {
		var enc jsonb.Encoder
		for lo := 0; lo < len(lines); lo += 1024 {
			tileLines := lines[lo : lo+1024]
			block := binary.LittleEndian.AppendUint32(nil, uint32(len(tileLines)))
			for _, l := range tileLines {
				var d jsontape.Doc
				if err := jsontape.Parse(l, &d); err != nil {
					t.Fatal(err)
				}
				doc := enc.EncodeTape(&d)
				block = binary.LittleEndian.AppendUint32(block, uint32(len(doc)))
				block = append(block, doc...)
			}
			if got, want := lz4.Compress(nil, block), lz4.ByteLoopCompress(nil, block); !bytes.Equal(got, want) {
				t.Errorf("%s, tile at %d (%d B): output differs from the byte loop", name, lo, len(block))
			}
		}
	}
}
