package jsontiles_test

// Runnable godoc examples; `go test` executes them and checks the
// Output comments, so the README's quickstart snippets can never rot.

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	jsontiles "repro"
)

// Example_quickstart loads newline-delimited JSON documents into an
// in-memory table and runs an aggregate query over a nested field.
func Example_quickstart() {
	docs := [][]byte{
		[]byte(`{"user":{"city":"paris"},"stars":5}`),
		[]byte(`{"user":{"city":"tokyo"},"stars":4}`),
		[]byte(`{"user":{"city":"paris"},"stars":3}`),
		[]byte(`{"user":{"city":"osaka"},"stars":5}`),
	}
	tbl, err := jsontiles.Load("reviews", docs, jsontiles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := tbl.Query("data->'user'->>'city'", "data->>'stars'::BigInt").
		GroupBy(0).
		Aggregate(jsontiles.CountAll("n"), jsontiles.Sum(1, "s")).
		OrderBy(0, false).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		fmt.Printf("%s n=%d stars=%d\n",
			res.Value(i, 0).Text(), res.Value(i, 1).Int64(), res.Value(i, 2).Int64())
	}
	// Output:
	// osaka n=1 stars=5
	// paris n=2 stars=8
	// tokyo n=1 stars=4
}

// ExampleTable_Insert streams documents into a table one at a time;
// tiles are built incrementally as the insert buffer fills.
func ExampleTable_Insert() {
	tbl, err := jsontiles.Load("events", nil, jsontiles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		doc := fmt.Sprintf(`{"id":%d,"kind":"click"}`, i)
		if err := tbl.Insert([]byte(doc)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		log.Fatal(err)
	}
	res, err := tbl.Query("data->>'id'::BigInt").
		WhereCmp(0, jsontiles.Ge, 7).
		GroupBy().
		Aggregate(jsontiles.CountAll("n")).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rows=%d matching=%d\n", tbl.NumRows(), res.Value(0, 0).Int64())
	// Output:
	// rows=10 matching=3
}

// ExampleTable_AppendTable loads a table in memory, appends it to a
// table directory as one segment, and reopens the directory — as a
// later process would — as a disk-backed table whose queries read only
// the blocks they touch.
func ExampleTable_AppendTable() {
	dir, err := os.MkdirTemp("", "jsontiles-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	docs := [][]byte{
		[]byte(`{"sku":"a-1","qty":3}`),
		[]byte(`{"sku":"b-2","qty":5}`),
		[]byte(`{"sku":"c-3","qty":2}`),
	}
	mem, err := jsontiles.Load("inventory", docs, jsontiles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "inventory.jt")
	tbl, err := jsontiles.OpenDir("inventory", path, jsontiles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.AppendTable(mem); err != nil {
		log.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		log.Fatal(err)
	}

	tbl, err = jsontiles.OpenDir("inventory", path, jsontiles.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer tbl.Close()
	res, err := tbl.Query("data->>'sku'", "data->>'qty'::BigInt").
		OrderBy(1, true).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		fmt.Printf("%s qty=%d\n", res.Value(i, 0).Text(), res.Value(i, 1).Int64())
	}
	// Output:
	// b-2 qty=5
	// a-1 qty=3
	// c-3 qty=2
}

// ExampleOpenStore runs the same multi-segment table over a BlockStore
// instead of a directory path — storage/compute separation.
// The store here is in-memory; swapping in NewFSStore or a fake (or
// real) object store changes nothing else. Closing and reopening the
// table demonstrates read-after-commit visibility: the store, not the
// Table, owns the bytes.
func ExampleOpenStore() {
	store := jsontiles.NewMemStore()

	opts := jsontiles.DefaultOptions()
	tbl, err := jsontiles.OpenStore("orders", store, opts)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		doc := fmt.Sprintf(`{"id":%d,"total":%d}`, i, i*10)
		if err := tbl.Insert([]byte(doc)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen from the same store: the committed generation is all that
	// is needed — no local files anywhere.
	tbl, err = jsontiles.OpenStore("orders", store, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer tbl.Close()
	res, err := tbl.Query("data->>'total'::BigInt").
		GroupBy().
		Aggregate(jsontiles.CountAll("n"), jsontiles.Sum(0, "sum")).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orders=%d total=%d\n", res.Value(0, 0).Int64(), res.Value(0, 1).Int64())
	// Output:
	// orders=6 total=150
}

// ExampleOpenDir opens a table directory that grows one segment per
// flush and is compacted in the background; the manifest makes every
// generation crash-safe.
func ExampleOpenDir() {
	dir, err := os.MkdirTemp("", "jsontiles-dir-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := jsontiles.DefaultOptions()
	opts.CompactFanIn = -1 // compact explicitly below
	tbl, err := jsontiles.OpenDir("metrics", filepath.Join(dir, "metrics"), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer tbl.Close()

	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 100; i++ {
			doc := fmt.Sprintf(`{"batch":%d,"v":%d}`, batch, i)
			if err := tbl.Insert([]byte(doc)); err != nil {
				log.Fatal(err)
			}
		}
		if err := tbl.Flush(); err != nil { // one new segment, O(batch) cost
			log.Fatal(err)
		}
	}
	fmt.Printf("segments before compaction: %d\n", tbl.NumSegments())
	if _, err := tbl.Compact(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segments after compaction: %d\n", tbl.NumSegments())
	fmt.Printf("rows: %d\n", tbl.NumRows())
	// Output:
	// segments before compaction: 4
	// segments after compaction: 1
	// rows: 400
}
