// Command jtload ingests a newline-delimited JSON file into JSON tiles
// and prints an extraction report: tiles, materialized columns,
// statistics, and the Table-6-style storage accounting.
//
//	jtgen -workload twitter | jtload
//	jtload -f tweets.jsonl -tilesize 1024
//	jtload -f tweets.jsonl -dir tweets.jt   # append to a table directory
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	jsontiles "repro"
)

func main() {
	file := flag.String("f", "-", "input file ('-' = stdin)")
	tileSize := flag.Int("tilesize", 1024, "tuples per tile")
	partSize := flag.Int("partsize", 8, "tiles per reordering partition")
	threshold := flag.Float64("threshold", 0.6, "extraction threshold")
	noReorder := flag.Bool("no-reorder", false, "disable partition reordering")
	dir := flag.String("dir", "", "append the input to a multi-segment table directory (created if absent)")
	compact := flag.Bool("compact", false, "with -dir: compact the table after appending")
	store := flag.String("store", "fs", "with -dir: block store backing the table: fs (direct filesystem), mem (in-process, lost on exit), fakes3 (simulated object store over -dir)")
	storeLatency := flag.Duration("store-latency", 0, "with -store fakes3: simulated per-request round trip")
	verbose := flag.Bool("v", false, "print per-tile extracted columns")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/queries, /debug/trace, and pprof on this address")
	flag.Parse()

	if *debugAddr != "" {
		addr, err := jsontiles.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "jtload: debug server on http://%s\n", addr)
	}

	opts := jsontiles.DefaultOptions()
	opts.TileSize = *tileSize
	opts.PartitionSize = *partSize
	opts.ExtractionThreshold = *threshold
	opts.Reorder = !*noReorder

	in := os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtload:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	tbl, err := jsontiles.LoadReader("input", in, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtload:", err)
		os.Exit(1)
	}

	info := tbl.StorageInfo()
	fmt.Printf("documents:          %d\n", tbl.NumRows())
	fmt.Printf("tiles:              %d (tile size %d, partition %d, threshold %.0f%%)\n",
		info.NumTiles, *tileSize, *partSize, *threshold*100)
	fmt.Printf("extracted columns:  %d total", info.ExtractedColumns)
	if info.NumTiles > 0 {
		fmt.Printf(" (%.1f per tile)", float64(info.ExtractedColumns)/float64(info.NumTiles))
	}
	fmt.Println()
	fmt.Printf("binary JSON:        %d bytes\n", info.BinaryJSONBytes)
	fmt.Printf("tile columns:       %d bytes (+%.1f%%)\n", info.TileColumnBytes,
		pct(info.TileColumnBytes, info.BinaryJSONBytes))
	fmt.Printf("LZ4 tile columns:   %d bytes (+%.1f%%)\n", info.CompressedTileColumnBytes,
		pct(info.CompressedTileColumnBytes, info.BinaryJSONBytes))

	if *dir != "" {
		dopts := opts
		dopts.CompactFanIn = -1 // compaction only on request below
		dt, err := openTable("input", *dir, *store, *storeLatency, dopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jtload:", err)
			os.Exit(1)
		}
		if err := dt.AppendTable(tbl); err != nil {
			fmt.Fprintln(os.Stderr, "jtload:", err)
			os.Exit(1)
		}
		if *compact {
			if _, err := dt.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "jtload:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("directory:          %s (%d segments, %d rows, %d bytes)\n",
			*dir, dt.NumSegments(), dt.NumRows(), dt.SizeBytes())
		if err := dt.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "jtload:", err)
			os.Exit(1)
		}
	}

	st := tbl.Stats()
	fmt.Printf("\nmost frequent key paths:\n")
	paths := st.TrackedPaths()
	if len(paths) > 15 {
		paths = paths[:15]
	}
	for _, p := range paths {
		fmt.Printf("  %-40s count=%-8d distinct≈%.0f\n", p, st.PathCount(p), st.DistinctCount(p))
	}

	if *verbose {
		fmt.Printf("\nper-tile extraction:\n")
		for i, cols := range tbl.ExtractedPaths() {
			fmt.Printf("  tile %d: %v\n", i, cols)
		}
	}
}

// openTable opens the table directory dir on the block store selected
// by -store: fs opens the directory itself (OpenDir); mem and fakes3
// open a store (OpenStore). The fakes3 store persists through an FS
// store over dir, so tables loaded through it reopen in later
// processes (jtquery/jtserve -store fakes3).
func openTable(name, dir, kind string, latency time.Duration, opts jsontiles.Options) (*jsontiles.Table, error) {
	switch kind {
	case "", "fs":
		return jsontiles.OpenDir(name, dir, opts)
	case "mem":
		return jsontiles.OpenStore(name, jsontiles.NewMemStore(), opts)
	case "fakes3":
		inner, err := jsontiles.NewFSStore(dir)
		if err != nil {
			return nil, err
		}
		return jsontiles.OpenStore(name, jsontiles.NewFakeS3Store(inner, latency), opts)
	}
	return nil, fmt.Errorf("unknown -store %q (want fs, mem, or fakes3)", kind)
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}
