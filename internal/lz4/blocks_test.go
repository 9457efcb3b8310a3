package lz4_test

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"

	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/lz4"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

// docsBlock is one tile's JSONB documents as one block, raw.
type docsBlock struct {
	name string // corpus and first document, e.g. "twitter@1024"
	raw  []byte
}

// jsonbDocsBlocks returns one block per tile of the 2048-document
// twitter, TPC-H and Yelp batches of BenchmarkFlush: tiles of 1024
// JSONB documents, a u32 count then each document length-prefixed (the
// layout of a segment's document parts, here over whole documents).
func jsonbDocsBlocks(tb testing.TB) []docsBlock {
	tb.Helper()
	const batch = 2048
	tw := twitter.Generate(twitter.Config{Tweets: batch, DeleteRatio: 0.4, Seed: 1})
	tp, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1})
	u := batch/14 + 1
	yl, _ := yelp.Generate(yelp.Config{Businesses: u, Users: 2 * u, Reviews: 8 * u, Tips: 2 * u, Checkins: u, Seed: 1})
	var out []docsBlock
	for _, c := range []struct {
		name  string
		lines [][]byte
	}{{"twitter", tw[:batch]}, {"tpch", tp[len(tp)-batch:]}, {"yelp", yl[:batch]}} {
		name, lines := c.name, c.lines
		var enc jsonb.Encoder
		for lo := 0; lo < len(lines); lo += 1024 {
			tileLines := lines[lo : lo+1024]
			block := binary.LittleEndian.AppendUint32(nil, uint32(len(tileLines)))
			for _, l := range tileLines {
				var d jsontape.Doc
				if err := jsontape.Parse(l, &d); err != nil {
					tb.Fatal(err)
				}
				doc := enc.EncodeTape(&d)
				block = binary.LittleEndian.AppendUint32(block, uint32(len(doc)))
				block = append(block, doc...)
			}
			out = append(out, docsBlock{name: name + "@" + strconv.Itoa(lo), raw: block})
		}
	}
	return out
}

// TestCompressJSONBBlocks: on the JSONB document blocks, the
// compressor's output is the byte-loop reference's.
func TestCompressJSONBBlocks(t *testing.T) {
	for _, b := range jsonbDocsBlocks(t) {
		if got, want := lz4.Compress(nil, b.raw), lz4.ByteLoopCompress(nil, b.raw); !bytes.Equal(got, want) {
			t.Errorf("%s (%d B): output differs from the byte loop", b.name, len(b.raw))
		}
	}
}

// TestDecompressJSONBBlocks: the JSONB document blocks decompress to
// themselves, exactly as the checked reference decoder decompresses
// them.
func TestDecompressJSONBBlocks(t *testing.T) {
	for _, b := range jsonbDocsBlocks(t) {
		comp := lz4.Compress(nil, b.raw)
		got, err := lz4.DecompressAlloc(comp, len(b.raw))
		if err != nil || !bytes.Equal(got, b.raw) {
			t.Errorf("%s (%d B): round trip failed: %v", b.name, len(b.raw), err)
		}
		want := make([]byte, len(b.raw))
		if n, err := lz4.CheckedDecompress(want, comp); err != nil || n != len(b.raw) || !bytes.Equal(got, want) {
			t.Errorf("%s: the reference decoder disagrees (%d, %v)", b.name, n, err)
		}
	}
}

// BenchmarkDecompressJSONBBlocks decodes every JSONB document block of
// the three corpora per iteration, with the decoder and with the checked
// reference; MB/s counts decompressed bytes.
func BenchmarkDecompressJSONBBlocks(b *testing.B) {
	blocks := jsonbDocsBlocks(b)
	comp := make([][]byte, len(blocks))
	raw := 0
	for i, blk := range blocks {
		comp[i] = lz4.Compress(nil, blk.raw)
		raw += len(blk.raw)
	}
	for _, dec := range []struct {
		name string
		fn   func(dst, src []byte) (int, error)
	}{{"decoder", lz4.Decompress}, {"checked", lz4.CheckedDecompress}} {
		b.Run(dec.name, func(b *testing.B) {
			dst := make([]byte, 0, raw)
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				for j, c := range comp {
					if _, err := dec.fn(dst[:len(blocks[j].raw)], c); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
