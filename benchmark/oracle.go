package main

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/storage"
)

// runOracle compares, once per run and outside every timed region,
// each query class's answer over the tiles/segment path with the
// same query over a raw-JSON relation built from the same lines —
// a format that shares no code with tiles beyond the parser and the
// operators above the scan. A mismatch is a failed operation.
func runOracle(h *harness, p *pass) error {
	lines := h.corpus.lines
	if p.appends > 0 {
		lines = append([][]byte(nil), lines...)
		for _, batch := range h.corpus.appends[:p.appends] {
			lines = append(lines, batch...)
		}
	}
	loader, err := storage.NewLoader(storage.KindJSON, storage.DefaultLoaderConfig())
	if err != nil {
		return err
	}
	raw, err := loader.Load("oracle", lines, h.nproc)
	if err != nil {
		return fmt.Errorf("oracle load: %w", err)
	}
	dt, err := storage.OpenDirStore(tableName, p.inner, bufpool.New(poolLarge), storage.DefaultLoaderConfig(), 0, false)
	if err != nil {
		return fmt.Errorf("oracle open: %w", err)
	}
	defer dt.Close()
	h.check(dt.NumRows() == len(lines), "oracle: table has %d rows, %d lines were written", dt.NumRows(), len(lines))

	for _, c := range libraryClasses(p.sz.Corpus) {
		got := c.run(dt, h.nproc)
		want := c.run(raw, h.nproc)
		diff := sameResult(got, want)
		h.check(diff == nil, "oracle %s: tiles differ from raw JSON: %v", c.name, diff)
	}
	h.check(dt.Err() == nil, "oracle: scan error: %v", dt.Err())
	return nil
}
