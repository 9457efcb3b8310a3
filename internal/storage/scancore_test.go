package storage

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/vec"
)

// typedFillDocs are documents whose tiles serve one path by each plan
// that resolves cells per row: s, a string of five shapes (a number, a
// boolean, a date, a decimal, a word), and n, an integer, are columns
// read under other types (cast); o is an integer column whose type
// outliers, numeric strings, divert its NULLs to the document (cast
// with docOnNull); rare is in too few documents to be extracted
// (document); and a[9] is past the slot cap (capped slot), holding an
// integer, a string, a boolean or an object, or absent from a short
// array.
func typedFillDocs(n int) [][]byte {
	out := make([][]byte, n)
	shapes := []string{`"12"`, `"true"`, `"2020-01-02T03:04:05Z"`, `"1.5"`, `"word"`}
	slot9 := []string{`9`, `"2021-05-06T07:08:09Z"`, `true`, `{"k":1}`}
	for i := range out {
		o := fmt.Sprint(i)
		if i%16 == 5 {
			o = fmt.Sprintf(`"%d"`, i)
		}
		elems := "0,1,2"
		if i%5 != 0 {
			elems += ",3,4,5,6,7,8," + slot9[i%4]
		}
		doc := fmt.Sprintf(`{"id":%d,"s":%s,"n":%d,"o":%s,"a":[%s]`, i, shapes[i%5], i*3, o, elems)
		if i%50 == 0 {
			doc += fmt.Sprintf(`,"rare":%s`, []string{`"12"`, `7`, `1.5`, `false`, `"2020-01-02T03:04:05Z"`}[i/50%5])
		}
		out[i] = []byte(doc + "}")
	}
	return out
}

// TestTileScanFillsTypedVectors: every per-row plan — document, cast,
// cast with docOnNull, capped slot — writes its cells straight into a
// typed vector for every SQL type but ::JSON, whose documents stay
// boxed, over in-memory tiles, a segment and a DirTable behind the
// simulated object store; with and without a narrowing access, every
// cell equals raw JSON's.
func TestTileScanFillsTypedVectors(t *testing.T) {
	docs := typedFillDocs(512)
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = 128
	cfg.Reorder = false
	l, _ := NewLoader(KindJSON, cfg)
	jsonRel, err := l.Load("json", docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, _ = NewLoader(KindTiles, cfg)
	tilesRel, err := l.Load("tiles", docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	tiles := tilesRel.(TileIntrospector).Tiles()
	dt, err := OpenDirStore("dir", blockstore.NewFakeS3(blockstore.NewMem(), blockstore.FakeS3Config{}), nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if err := dt.AppendTiles(tiles, tilesRel.Stats(), 2); err != nil {
		t.Fatal(err)
	}
	rels := map[string]Relation{"tiles": tilesRel, "dir": dt}

	types := []expr.SQLType{expr.TBigInt, expr.TFloat, expr.TText, expr.TBool, expr.TTimestamp, expr.TJSON}
	kinds := []string{"document", "cast", "cast with docOnNull", "capped slot"}
	paths := map[string]func(expr.SQLType) keypath.Path{
		"document": func(expr.SQLType) keypath.Path { return keypath.NewPath("rare") },
		"cast": func(typ expr.SQLType) keypath.Path {
			if typ == expr.TText {
				return keypath.NewPath("n")
			}
			return keypath.NewPath("s")
		},
		"cast with docOnNull": func(expr.SQLType) keypath.Path { return keypath.NewPath("o") },
		"capped slot":         func(expr.SQLType) keypath.Path { return keypath.NewPath("a").Slot(9) },
	}
	var accs []Access
	var kindOf []string
	for _, kind := range kinds {
		for _, typ := range types {
			accs = append(accs, NewAccessPath(typ, paths[kind](typ)))
			kindOf = append(kindOf, kind)
		}
	}
	accs = append(accs, NewAccess(expr.TBigInt, "id"))
	kindOf = append(kindOf, "")

	// Each access is planned as its kind on some tile.
	hs := headerPaths(accs, scanCfgOf(cfg).maxSlots)
	for ai, a := range accs[:len(accs)-1] {
		planned := false
		for _, tl := range tiles {
			p := planAccess(tl, a, hs[ai])
			switch kind := kindOf[ai]; {
			case a.Type == expr.TJSON || kind == "document":
				planned = planned || p.serve == serveDoc
			case kind == "cast":
				planned = planned || p.serve == serveCast && !p.docOnNull
			case kind == "cast with docOnNull":
				planned = planned || p.serve == serveCast && p.docOnNull
			case kind == "capped slot":
				planned = planned || p.serve == serveDoc && hs[ai].capped
			}
		}
		if !planned {
			t.Fatalf("%s::%s: no tile plans it as %s", a.Path.Display(), a.Type, kindOf[ai])
		}
	}

	for _, narrow := range []bool{false, true} {
		accs := append([]Access(nil), accs...)
		accs[2*len(types)].NullRejecting = narrow // o::BigInt
		want, _, _ := typedScan(jsonRel, accs)
		for label, rel := range rels {
			got, boxedJSON, boxed := typedScan(rel, accs)
			if boxed != "" {
				t.Fatalf("%s narrow=%v: %s", label, narrow, boxed)
			}
			if boxedJSON == 0 {
				t.Fatalf("%s narrow=%v: no ::JSON access emitted a boxed vector", label, narrow)
			}
			if len(got) != len(want) {
				t.Fatalf("%s narrow=%v: %d rows, raw JSON %d", label, narrow, len(got), len(want))
			}
			for id, row := range want {
				if !reflect.DeepEqual(got[id], row) {
					t.Fatalf("%s narrow=%v, id %d:\n got %v\nwant %v", label, narrow, id, got[id], row)
				}
			}
		}
	}
}

// typedScan scans rel for accs, whose last is the id, and returns each
// selected row's cells by id, how many ::JSON vectors came boxed, and
// the first vector that came otherwise than it should: a ::JSON one
// neither boxed nor all NULL, or a boxed one of another type.
func typedScan(rel Relation, accs []Access) (rows map[int64][]string, boxedJSON int, wrong string) {
	var mu sync.Mutex
	rows = map[int64][]string{}
	rel.(BatchScanner).ScanBatches(context.Background(), accs, 2, func(_ int, b *vec.Batch) {
		mu.Lock()
		defer mu.Unlock()
		for ai, a := range accs {
			v := &b.Cols[ai]
			switch {
			case a.Type == expr.TJSON && v.Boxed != nil:
				boxedJSON++
			case wrong != "":
			case a.Type == expr.TJSON && !v.AllNull:
				wrong = fmt.Sprintf("%s::JSON came neither boxed nor all NULL", a.Path.Display())
			case v.Boxed != nil:
				wrong = fmt.Sprintf("%s::%s came boxed", a.Path.Display(), a.Type)
			}
		}
		id := len(accs) - 1
		for _, i := range b.Selected() {
			row := make([]string, len(accs))
			for ai := range accs {
				x := b.Cols[ai].Value(int(i))
				row[ai] = x.Typ.String() + ":" + x.String()
			}
			rows[b.Cols[id].Value(int(i)).I] = row
		}
	}, nil)
	return rows, boxedJSON, wrong
}

// TestCastWithoutNullsReadsNoDocuments: a cast access whose tiles may
// divert its column's NULLs to the documents (docOnNull), but whose
// column holds no NULL, resolves no document part. On a pool that
// already holds every tile's documents, fetched and not yet decoded,
// the cast scan misses and decodes exactly the blocks a column-only
// scan of another column does: the column's, one per tile.
func TestCastWithoutNullsReadsNoDocuments(t *testing.T) {
	const tiles, rows = 4, 64
	line := func(i int, o string) []byte {
		return []byte(fmt.Sprintf(`{"id":%d,"o":%s,"note":"n%d"}`, i, o, i))
	}
	lines := make([][]byte, tiles*rows)
	for i := range lines {
		o := fmt.Sprint(i)
		if i%rows == 5 {
			o = fmt.Sprintf(`"%d"`, i) // a type outlier in every tile
		}
		lines[i] = line(i, o)
	}
	cfg := DefaultLoaderConfig()
	cfg.Tile.TileSize = rows
	cfg.Reorder = false
	rel, err := BuildTilesFromLines("t", lines, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each outlier becomes an integer: the column then holds every row,
	// and the tile still flags its outliers.
	for ti := 0; ti < tiles; ti++ {
		i := ti*rows + 5
		var d jsontape.Doc
		if err := jsontape.Parse(line(i, fmt.Sprint(i)), &d); err != nil {
			t.Fatal(err)
		}
		if _, err := rel.(*tilesRelation).UpdateRow(i, &d); err != nil {
			t.Fatal(err)
		}
	}
	cast, byID := NewAccess(expr.TBigInt, "o"), NewAccess(expr.TBigInt, "id")
	hs := headerPaths([]Access{cast}, scanCfgOf(cfg).maxSlots)
	for ti, tl := range rel.(TileIntrospector).Tiles() {
		p := planAccess(tl, cast, hs[0])
		if p.serve != serveCast || !p.docOnNull {
			t.Fatalf("tile %d plans o::BigInt %+v, want a cast with docOnNull", ti, p)
		}
		for i := 0; i < rows; i++ {
			if tl.Column(p.col).Col.IsNull(i) {
				t.Fatalf("tile %d: o is NULL in row %d", ti, i)
			}
		}
	}
	dt, err := OpenDirStore("t", blockstore.NewMem(), nil, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if err := dt.AppendTiles(rel.(TileIntrospector).Tiles(), rel.Stats(), 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range dt.segs {
		for ti := 0; ti < s.r.NumTiles(); ti++ {
			tm := s.r.Tile(ti)
			var refs []segment.BlockRef
			for p := 0; p <= len(tm.Docs); p++ {
				refs = append(refs, tm.DocRef(p))
			}
			runs, _ := s.r.PlanFetch(refs)
			s.r.Fetch("", runs, false)
		}
	}

	scan := func(a Access) obs.ScanCounts {
		var st obs.ScanStats
		got := collectScanStats(dt, []Access{a}, 2, &st)
		if len(got) != tiles*rows || dt.Err() != nil {
			t.Fatalf("%s: %d rows, err %v", a.Path.Display(), len(got), dt.Err())
		}
		return st.Counts()
	}
	col, c := scan(byID), scan(cast)
	if c.JSONBFallbacks != 0 || c.ColumnHits != tiles*rows {
		t.Errorf("o::BigInt: %d JSONB fallbacks, %d column hits; want 0 and %d", c.JSONBFallbacks, c.ColumnHits, tiles*rows)
	}
	if col.BlocksDecoded != tiles || c.BlocksDecoded != col.BlocksDecoded || c.PoolMisses != col.PoolMisses {
		t.Errorf("o::BigInt decoded %d blocks with %d pool misses, id::BigInt %d with %d; want %d and equal",
			c.BlocksDecoded, c.PoolMisses, col.BlocksDecoded, col.PoolMisses, tiles)
	}
}
