package jsontiles

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/storage"
)

// TestUpdateMatchesRawJSON applies §4.7 updates of every kind to a
// tiles table and compares each read with raw JSON loaded from the
// updated lines: the ->> text, every cast, the -> JSON value and IS NOT
// NULL of every path, at one and three workers, before and after
// Recompute. Objects are written with sorted keys, or one member, so
// raw JSON and binary JSON render them alike.
func TestUpdateMatchesRawJSON(t *testing.T) {
	o := DefaultOptions()
	o.TileSize = 16
	o.PartitionSize = 1
	o.Reorder = false // row i stays line i
	lines := make([]string, 48)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"arr":[%d,"x",%d],"b":%v,"f":%d.5,"i":%d,"o":{"x":%d},"s":"s%d","ts":"2021-03-%02d 08:30:00"}`,
			i, i+1, i%2 == 0, i, i, i%5, i%7, 1+i%28)
	}
	lines[20] = `{"b":true,"f":1.5,"i":{"x":20},"s":"loaded"}` // a container at an extracted path, at load

	updates := []struct {
		row int
		doc string
	}{
		{1, `{"i":101,"new":"n"}`},                 // new key, removed keys
		{2, `{"f":2.5,"i":"seven"}`},               // int to text
		{3, `{"i":3.25}`},                          // int to float
		{4, `{"i":null,"s":null,"ts":null}`},       // explicit nulls
		{5, `{"ts":"2022-01-02 03:04:05"}`},        // a date into the timestamp column
		{6, `{"ts":"not a date"}`},                 // and a string that is none
		{7, `{"i":1,"s":"a","i":2,"s":"b"}`},       // repeated keys: the last wins
		{8, `{"arr":[0,1,2,3,4,5,6,7,8,9,10,11]}`}, // past the slot cap
		{9, `42`},                 // scalar roots
		{10, `"text"`},            //
		{11, `{"i":{"x":1}}`},     // containers at extracted paths
		{12, `{"f":[7],"i":[7]}`}, //
		{13, `{"arr":[{"k":1}],"b":{"k":false},"s":{"k":"v"}}`},    //
		{14, `{"b":false,"s":"new text"}`},                         // text and bool columns
		{15, `{"arr":[],"o":{},"ts":{"k":"2021-03-01 08:30:00"}}`}, // empty containers
		{21, `{"f":8.5,"i":[1],"o":5}`},                            // a scalar at a prefix
	}
	// Most of the last tile drifts to a disjoint shape, so Recompute
	// has a tile to rebuild.
	for row := 32; row < 43; row++ {
		updates = append(updates, struct {
			row int
			doc string
		}{row, fmt.Sprintf(`{"z":%d,"zs":"v%d"}`, row, row)})
	}

	asDocs := func() [][]byte {
		docs := make([][]byte, len(lines))
		for i, l := range lines {
			docs[i] = []byte(l)
		}
		return docs
	}
	tbl, err := Load("updated", asDocs(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		if _, err := tbl.Update(u.row, []byte(u.doc)); err != nil {
			t.Fatalf("update row %d: %v", u.row, err)
		}
		lines[u.row] = u.doc
	}
	loader, err := storage.NewLoader(storage.KindJSON, storage.DefaultLoaderConfig())
	if err != nil {
		t.Fatal(err)
	}
	rawRel, err := loader.Load("raw", asDocs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	raw := &Table{name: "raw", opts: o, rel: rawRel}

	// Each path as its parent's access and its last step.
	var exprs []string
	for _, p := range [][2]string{{"", "'i'"}, {"", "'f'"}, {"", "'s'"}, {"", "'b'"}, {"", "'ts'"},
		{"->'o'", "'x'"}, {"", "'o'"}, {"->'arr'", "0"}, {"->'arr'", "1"}, {"->'arr'", "9"},
		{"", "'new'"}, {"", "'z'"}, {"", "'zs'"}} {
		text := "data" + p[0] + "->>" + p[1]
		exprs = append(exprs, text, "data"+p[0]+"->"+p[1])
		for _, cast := range []string{"BigInt", "Float", "Bool", "Timestamp", "Text"} {
			exprs = append(exprs, text+"::"+cast)
		}
	}

	check := func(phase string) {
		t.Helper()
		for _, workers := range []int{1, 3} {
			tbl.opts.Workers, raw.opts.Workers = workers, workers
			for _, e := range exprs {
				for _, notNull := range []bool{false, true} {
					got, want := sortedRows(t, tbl, e, notNull), sortedRows(t, raw, e, notNull)
					if !slices.Equal(got, want) {
						t.Errorf("%s, %d workers, %s (not null only: %v):\n got %q\nwant %q", phase, workers, e, notNull, got, want)
					}
				}
			}
		}
	}
	check("before Recompute")
	if n := tbl.Recompute(); n == 0 {
		t.Fatal("Recompute rebuilt no tile")
	}
	check("after Recompute")
}

// sortedRows runs one access over the table, NULLs dropped when
// notNull, and returns its rendered values sorted.
func sortedRows(t *testing.T, tbl *Table, access string, notNull bool) []string {
	t.Helper()
	q := tbl.Query(access)
	if notNull {
		q = q.WhereNotNull(0)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatalf("%s: %v", access, err)
	}
	out := make([]string, res.NumRows())
	for i := range out {
		out[i] = res.Value(i, 0).String()
	}
	slices.Sort(out)
	return out
}
