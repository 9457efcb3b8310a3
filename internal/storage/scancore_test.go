package storage

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/expr"
	"repro/internal/keypath"
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
