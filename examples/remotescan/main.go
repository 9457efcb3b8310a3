// Remote scan: storage/compute separation over a simulated object
// store. A multi-segment table is written through a BlockStore, then
// scanned through a latency-injecting fake S3 — first cold, where
// adjacent block reads merge into ranged requests that the scan's fetch
// window issues ahead of the workers, then warm, where the buffer pool
// serves every block — printing the request counts the store actually
// served. EXPLAIN ANALYZE shows the same numbers per scan:
// `store reads=… bytes=… coalesced=… prefetch_hits=…`.
package main

import (
	"fmt"
	"log"
	"time"

	jsontiles "repro"
)

// requestCounting is the corner of the fake-S3 store this demo reads
// back; jsontiles.NewFakeS3Store's concrete type implements it.
type requestCounting interface {
	Requests() int64
	RangeReadCount() int64
	BytesRead() int64
}

func load(store jsontiles.BlockStore, opts jsontiles.Options) *jsontiles.Table {
	tbl, err := jsontiles.OpenStore("tweets", store, opts)
	if err != nil {
		log.Fatal(err)
	}
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 500; i++ {
			id := batch*500 + i
			// Schema evolution, as in the paper's tweets: geo tags only
			// exist in the later half of the data, so the seen-path tile
			// index can prove the early segments irrelevant (§4.8).
			doc := fmt.Sprintf(`{"id":%d,"text":"tweet-%d","user":{"id":%d},"replies":%d}`,
				id, id, id%97, id%13)
			if batch >= 2 {
				doc = fmt.Sprintf(`{"id":%d,"text":"tweet-%d","user":{"id":%d},"replies":%d,"geo":{"lat":%g}}`,
					id, id, id%97, id%13, float64(id)/100)
			}
			if err := tbl.Insert([]byte(doc)); err != nil {
				log.Fatal(err)
			}
		}
		if err := tbl.Flush(); err != nil { // one segment object per batch
			log.Fatal(err)
		}
	}
	return tbl
}

func scan(tbl *jsontiles.Table, label string, counters requestCounting) {
	before := counters.RangeReadCount()
	start := time.Now()
	res, qs, err := tbl.Query(
		"data->>'id'::BigInt",
		"data->>'replies'::BigInt",
		"data->'user'->>'id'::BigInt",
		"data->'geo'->>'lat'::Float",
	).
		WhereNotNull(3). // tile index skips the geo-less segments
		GroupBy().
		Aggregate(jsontiles.CountAll("n"), jsontiles.Sum(1, "replies")).
		RunAnalyzed()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s:\n  rows=%d replies=%d wall=%s range_reads=%d\n",
		label, res.Value(0, 0).Int64(), res.Value(0, 1).Int64(),
		time.Since(start).Round(time.Millisecond), counters.RangeReadCount()-before)
	fmt.Printf("  plan:\n%s\n", qs.Plan)
}

func main() {
	// The table's bytes live in the inner store; the fake adds a
	// 2ms-per-request round trip on top, so every saved request is
	// visible in wall time.
	inner := jsontiles.NewMemStore()
	fake := jsontiles.NewFakeS3Store(inner, jsontiles.FakeS3Options{
		Latency: 2 * time.Millisecond,
	})

	opts := jsontiles.DefaultOptions()
	load(fake, opts).Close()

	tbl, err := jsontiles.OpenStore("tweets", fake, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer tbl.Close()
	// Cold: adjacent block reads merge into ranged requests, and the
	// scan's fetch window issues the surviving tiles' reads ahead of the
	// workers.
	scan(tbl, "cold (coalesced reads + fetch window)", fake.(requestCounting))
	// Warm: the same blocks are resident in the buffer pool.
	scan(tbl, "warm (buffer pool)", fake.(requestCounting))
}
