package jsontiles

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/exprparse"
	"repro/internal/obs"
	"repro/internal/storage"
)

// orderDocs are documents whose plain-scan order exercises every rule
// of SortRows: a text column with many ties (and NULLs) decided by the
// later columns, a float column holding -0, 0, NaN and ±Inf, an
// integer column, and a JSON column compared by its text.
func orderDocs(n int) [][]byte {
	r := rand.New(rand.NewSource(7))
	floats := []string{`-0.0`, `0`, `0.0`, `"NaN"`, `"Inf"`, `"-Inf"`, `1.5`, `-2`, `null`}
	out := make([][]byte, n)
	for i := range out {
		doc := "{"
		if r.Intn(8) > 0 {
			doc += fmt.Sprintf(`"k":"k%d",`, r.Intn(6))
		}
		doc += fmt.Sprintf(`"f":%s,"n":%d`, floats[r.Intn(len(floats))], r.Intn(4)-1)
		if r.Intn(3) == 0 {
			doc += fmt.Sprintf(`,"o":{"a":%d}`, r.Intn(3))
		}
		out[i] = []byte(doc + "}")
	}
	return out
}

// TestPlainScanOrderMatchesSortRows: a plain scan's result — collected
// as column vectors and ordered by a permutation — lists the rows in
// the order engine.Materialize + SortRows gives them, row for row, over
// in-memory tiles, a one-segment table and a directory table behind a
// simulated object store, at one and three workers. Such a query boxes
// no row.
func TestPlainScanOrderMatchesSortRows(t *testing.T) {
	exprs := []string{"data->>'k'", "data->>'f'::Float", "data->>'n'::BigInt", "data->'o'"}
	all := orderDocs(900)
	for _, workers := range []int{1, 3} {
		o := opts()
		o.Workers = workers
		mem, err := Load("mem", all, o)
		if err != nil {
			t.Fatal(err)
		}
		seg, _ := persist(t, mem, o)
		dir, err := OpenStore("dir", NewFakeS3Store(nil, 0), o)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		flushBatches(t, dir, all, 3)

		for i, tbl := range []*Table{mem, seg, dir} {
			name := fmt.Sprintf("%s/workers=%d", []string{"mem", "seg", "dir"}[i], workers)
			accs := make([]storage.Access, len(exprs))
			for i, e := range exprs {
				accs[i] = exprparse.MustParse(e)
			}
			want := engine.Materialize(engine.NewScan(tbl.rel, accs, nil, nil), workers)
			want.SortRows()
			boxed := obs.RowsBoxed.Load()
			res, _, err := tbl.Query(exprs...).RunAnalyzed()
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != len(want.Rows) {
				t.Fatalf("%s: %d rows, want %d", name, res.NumRows(), len(want.Rows))
			}
			for i, row := range want.Rows {
				for j, w := range row {
					g := res.Value(i, j).v
					if g.Null != w.Null || g.Typ != w.Typ || g.String() != w.String() {
						t.Fatalf("%s: row %d col %d is %s, want %s", name, i, j, g, w)
					}
				}
			}
			if n := obs.RowsBoxed.Load() - boxed; n != 0 {
				t.Errorf("%s: plain scan boxed %d rows, want 0", name, n)
			}
		}
	}
}

// TestOrderByNaNKey: ORDER BY over a Float key holding NaN and NULL
// sorts NULL first and NaN after every number (ascending; descending
// reverses both), as PostgreSQL does, in the full sort and in top-K,
// at one and three workers. Neither sort boxes a row.
func TestOrderByNaNKey(t *testing.T) {
	all := docs(`{"x":"3"}`, `{"x":"NaN"}`, `{"x":"1"}`, `{}`, `{"x":"2"}`)
	for _, workers := range []int{1, 3} {
		o := opts()
		o.Workers = workers
		tbl, err := Load("nan", all, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			desc  bool
			limit int
			want  string
		}{
			{false, -1, "[NULL 1 2 3 NaN]"},
			{true, -1, "[NaN 3 2 1 NULL]"},
			{false, 3, "[NULL 1 2]"},
			{true, 3, "[NaN 3 2]"},
		} {
			boxed := obs.RowsBoxed.Load()
			q := tbl.Query("data->>'x'::Float").OrderBy(0, c.desc)
			if c.limit >= 0 {
				q = q.Limit(c.limit)
			}
			res, _, err := q.RunAnalyzed()
			if err != nil {
				t.Fatal(err)
			}
			if n := obs.RowsBoxed.Load() - boxed; n != 0 {
				t.Errorf("workers %d, desc %v, limit %d: %d rows boxed, want 0", workers, c.desc, c.limit, n)
			}
			var got []string
			for i := 0; i < res.NumRows(); i++ {
				got = append(got, res.Value(i, 0).String())
			}
			if fmt.Sprint(got) != c.want {
				t.Errorf("workers %d, desc %v, limit %d: %v, want %s", workers, c.desc, c.limit, got, c.want)
			}
		}
	}
}
