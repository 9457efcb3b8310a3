// Benchmarks regenerating every table and figure of the paper's
// evaluation as testing.B benchmarks (one family per exhibit; the
// cmd/jtbench tool prints the same data as formatted tables). Run
// with:
//
//	go test -bench=. -benchmem
//
// Fixtures are built once per process at a small scale factor so the
// whole suite completes on a laptop; absolute numbers scale with -sf
// via jtbench, shapes do not change.
package jsontiles

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bson"
	"repro/internal/cbor"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/exprparse"
	"repro/internal/fpgrowth"
	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/storage"
	"repro/internal/tile"
	"repro/internal/workload/simdjsonfiles"
	"repro/internal/workload/tpch"
	"repro/internal/workload/twitter"
	"repro/internal/workload/yelp"
)

const benchScale = 0.002

var (
	fixOnce sync.Once
	fix     struct {
		tpchLines     [][]byte
		tpchShuffled  [][]byte
		lineitemLines [][]byte
		yelpLines     [][]byte
		twitterLines  [][]byte
		changingLines [][]byte

		rels        map[storage.FormatKind]storage.Relation
		shuffled    map[storage.FormatKind]storage.Relation
		yelpRels    map[storage.FormatKind]storage.Relation
		twitterRels map[storage.FormatKind]storage.Relation
		star        *storage.TilesStar
	}
)

var benchFormats = []storage.FormatKind{storage.KindJSON, storage.KindJSONB,
	storage.KindSinew, storage.KindTiles, storage.KindShredded}

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		lines, spans := tpch.Generate(tpch.Config{ScaleFactor: benchScale, Seed: 42})
		fix.tpchLines = lines
		sp := spans["lineitem"]
		fix.lineitemLines = lines[sp[0]:sp[1]]
		fix.tpchShuffled = tpch.Shuffle(lines, 77)
		fix.yelpLines, _ = yelp.Generate(yelp.Config{
			Businesses: 400, Users: 800, Reviews: 3200, Tips: 800, Checkins: 400, Seed: 42})
		fix.twitterLines = twitter.Generate(twitter.Config{Tweets: 6000, DeleteRatio: 0.4, Seed: 42})
		fix.changingLines = twitter.Generate(twitter.Config{Tweets: 6000, Changing: true, Seed: 42})

		loadAll := func(name string, data [][]byte) map[storage.FormatKind]storage.Relation {
			out := map[storage.FormatKind]storage.Relation{}
			for _, k := range benchFormats {
				l, err := storage.NewLoader(k, storage.DefaultLoaderConfig())
				if err != nil {
					panic(err)
				}
				rel, err := l.Load(name, data, 4)
				if err != nil {
					panic(err)
				}
				out[k] = rel
			}
			return out
		}
		fix.rels = loadAll("tpch", fix.tpchLines)
		fix.shuffled = loadAll("tpch-shuffled", fix.tpchShuffled)
		fix.yelpRels = loadAll("yelp", fix.yelpLines)
		fix.twitterRels = loadAll("twitter", fix.twitterLines)
		star, err := storage.BuildTilesStar("twitter", fix.twitterLines,
			storage.DefaultLoaderConfig(), 4, twitter.IDPath(), twitter.ArrayPaths()...)
		if err != nil {
			panic(err)
		}
		fix.star = star
	})
}

// BenchmarkFig7 — Q1/Q18 throughput per storage format.
func BenchmarkFig7(b *testing.B) {
	fixtures(b)
	for _, num := range []int{1, 18} {
		q, _ := tpch.QueryByNum(num)
		for _, kind := range benchFormats {
			b.Run(fmt.Sprintf("Q%d/%s", num, kind), func(b *testing.B) {
				rel := fix.rels[kind]
				for i := 0; i < b.N; i++ {
					q.Run(rel, 4)
				}
			})
		}
	}
}

// BenchmarkFig8 — scalability over worker counts (Tiles).
func BenchmarkFig8(b *testing.B) {
	fixtures(b)
	q, _ := tpch.QueryByNum(1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Q1/Tiles/workers=%d", workers), func(b *testing.B) {
			rel := fix.rels[storage.KindTiles]
			for i := 0; i < b.N; i++ {
				q.Run(rel, workers)
			}
		})
	}
}

// BenchmarkTable1 — all 22 TPC-H queries on JSONB, Sinew and Tiles
// (the full grid runs via cmd/jtbench tab1).
func BenchmarkTable1(b *testing.B) {
	fixtures(b)
	for _, q := range tpch.Queries() {
		q := q
		for _, kind := range []storage.FormatKind{storage.KindJSONB, storage.KindSinew, storage.KindTiles} {
			b.Run(fmt.Sprintf("Q%d/%s", q.Num, kind), func(b *testing.B) {
				rel := fix.rels[kind]
				for i := 0; i < b.N; i++ {
					q.Run(rel, 4)
				}
			})
		}
	}
}

// BenchmarkTable2 — the Yelp queries.
func BenchmarkTable2(b *testing.B) {
	fixtures(b)
	for _, q := range yelp.Queries() {
		q := q
		for _, kind := range []storage.FormatKind{storage.KindJSONB, storage.KindSinew, storage.KindTiles} {
			b.Run(fmt.Sprintf("Y%d/%s", q.Num, kind), func(b *testing.B) {
				rel := fix.yelpRels[kind]
				for i := 0; i < b.N; i++ {
					q.Run(rel, 4)
				}
			})
		}
	}
}

// BenchmarkTable3 — the Twitter queries including Tiles-*.
func BenchmarkTable3(b *testing.B) {
	fixtures(b)
	for _, q := range twitter.Queries() {
		q := q
		for _, kind := range []storage.FormatKind{storage.KindJSONB, storage.KindSinew, storage.KindTiles} {
			b.Run(fmt.Sprintf("T%d/%s", q.Num, kind), func(b *testing.B) {
				rel := fix.twitterRels[kind]
				for i := 0; i < b.N; i++ {
					q.Run(rel, 4)
				}
			})
		}
		if q.RunStar != nil {
			b.Run(fmt.Sprintf("T%d/Tiles-star", q.Num), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q.RunStar(fix.star, 4)
				}
			})
		}
	}
}

// BenchmarkTable4 — the changing-structure data set (Tiles).
func BenchmarkTable4(b *testing.B) {
	fixtures(b)
	l, _ := storage.NewLoader(storage.KindTiles, storage.DefaultLoaderConfig())
	rel, err := l.Load("changing", fix.changingLines, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range twitter.Queries() {
		q := q
		b.Run(fmt.Sprintf("T%d/Tiles/changing", q.Num), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Run(rel, 4)
			}
		})
	}
}

// BenchmarkFig9 — shuffled TPC-H (robustness): the representative
// query subset per format.
func BenchmarkFig9(b *testing.B) {
	fixtures(b)
	for _, kind := range []storage.FormatKind{storage.KindJSONB, storage.KindSinew, storage.KindTiles} {
		b.Run(string(kind), func(b *testing.B) {
			rel := fix.shuffled[kind]
			for i := 0; i < b.N; i++ {
				for _, num := range []int{1, 3, 6, 18} {
					q, _ := tpch.QueryByNum(num)
					q.Run(rel, 4)
				}
			}
		})
	}
}

// BenchmarkFig10 — query speed vs tile size on shuffled data.
func BenchmarkFig10(b *testing.B) {
	fixtures(b)
	q, _ := tpch.QueryByNum(1)
	for _, ts := range []int{1 << 8, 1 << 10, 1 << 12} {
		cfg := storage.DefaultLoaderConfig()
		cfg.Tile.TileSize = ts
		l, _ := storage.NewLoader(storage.KindTiles, cfg)
		rel, err := l.Load("sweep", fix.tpchShuffled, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q1/tile=%d", ts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Run(rel, 4)
			}
		})
	}
}

// BenchmarkFig11 — loading time vs tile and partition size.
func BenchmarkFig11(b *testing.B) {
	fixtures(b)
	for _, ts := range []int{1 << 8, 1 << 10, 1 << 12} {
		for _, ps := range []int{1, 8} {
			b.Run(fmt.Sprintf("tile=%d/part=%d", ts, ps), func(b *testing.B) {
				cfg := storage.DefaultLoaderConfig()
				cfg.Tile.TileSize = ts
				cfg.Tile.PartitionSize = ps
				cfg.Reorder = ps > 1
				l, _ := storage.NewLoader(storage.KindTiles, cfg)
				for i := 0; i < b.N; i++ {
					if _, err := l.Load("sweep", fix.tpchShuffled, 4); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig12 / BenchmarkFig13 — Yelp and Twitter geo-mean proxies
// vs tile size.
func BenchmarkFig12(b *testing.B) {
	fixtures(b)
	benchTileSweep(b, fix.yelpLines, func(rel storage.Relation) {
		for _, q := range yelp.Queries() {
			q.Run(rel, 4)
		}
	})
}

func BenchmarkFig13(b *testing.B) {
	fixtures(b)
	benchTileSweep(b, fix.twitterLines, func(rel storage.Relation) {
		for _, q := range twitter.Queries() {
			q.Run(rel, 4)
		}
	})
}

func benchTileSweep(b *testing.B, lines [][]byte, run func(storage.Relation)) {
	for _, ts := range []int{1 << 8, 1 << 10, 1 << 12} {
		cfg := storage.DefaultLoaderConfig()
		cfg.Tile.TileSize = ts
		l, _ := storage.NewLoader(storage.KindTiles, cfg)
		rel, err := l.Load("sweep", lines, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tile=%d", ts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(rel)
			}
		})
	}
}

// BenchmarkFig14 — the optimization ablations on TPC-H.
func BenchmarkFig14(b *testing.B) {
	fixtures(b)
	q1, _ := tpch.QueryByNum(1)
	levels := []struct {
		name        string
		dates, skip bool
	}{
		{"noOpt", false, false},
		{"noDate", false, true},
		{"noSkip", true, false},
		{"Tiles", true, true},
	}
	for _, lv := range levels {
		cfg := storage.DefaultLoaderConfig()
		cfg.Tile.DetectDates = lv.dates
		cfg.SkipTiles = lv.skip
		l, _ := storage.NewLoader(storage.KindTiles, cfg)
		rel, err := l.Load("ablate", fix.tpchLines, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(lv.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q1.Run(rel, 4)
			}
		})
	}
}

// sumLinenumber is the §6.7 micro query.
func benchSumQuery(rel storage.Relation, workers int) *engine.Result {
	scan := engine.NewScan(rel, []storage.Access{
		exprparse.MustParse(`data->>'l_linenumber'::BigInt`),
	}, nil, nil)
	gb := engine.NewGroupBy(scan, nil, nil,
		[]engine.AggSpec{{Func: engine.Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "sum"}})
	return engine.Materialize(gb, workers)
}

// BenchmarkFig15 / BenchmarkTable5 — the summation micro benchmark;
// ns/op and allocs/op substitute the paper's hardware counters.
func BenchmarkFig15(b *testing.B) {
	fixtures(b)
	only := map[storage.FormatKind]storage.Relation{}
	for _, kind := range []storage.FormatKind{storage.KindJSONB, storage.KindSinew, storage.KindTiles} {
		l, _ := storage.NewLoader(kind, storage.DefaultLoaderConfig())
		rel, err := l.Load("lineitem", fix.lineitemLines, 4)
		if err != nil {
			b.Fatal(err)
		}
		only[kind] = rel
	}
	cases := []struct {
		name string
		rel  storage.Relation
		rows int
	}{
		{"JSONB-Comb", fix.rels[storage.KindJSONB], len(fix.tpchLines)},
		{"Sinew-Only", only[storage.KindSinew], len(fix.lineitemLines)},
		{"Sinew-Comb", fix.rels[storage.KindSinew], len(fix.tpchLines)},
		{"Tiles-Only", only[storage.KindTiles], len(fix.lineitemLines)},
		{"Tiles-Comb", fix.rels[storage.KindTiles], len(fix.tpchLines)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSumQuery(tc.rel, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tc.rows), "ns/tuple")
		})
	}
}

// BenchmarkFig16 — tiles loading (the breakdown prints via jtbench).
func BenchmarkFig16(b *testing.B) {
	fixtures(b)
	var m tile.Metrics
	cfg := storage.DefaultLoaderConfig()
	cfg.Metrics = &m
	b.Run("load-tiles-tpch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.BuildTilesFromLines("tpch", fix.tpchLines, cfg, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig17 — loading throughput per format.
func BenchmarkFig17(b *testing.B) {
	fixtures(b)
	for _, kind := range benchFormats {
		b.Run(string(kind), func(b *testing.B) {
			l, _ := storage.NewLoader(kind, storage.DefaultLoaderConfig())
			for i := 0; i < b.N; i++ {
				if _, err := l.Load("tpch", fix.tpchLines, 4); err != nil {
					b.Fatal(err)
				}
			}
			tuplesPerSec := float64(len(fix.tpchLines)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(tuplesPerSec/1000, "ktuples/s")
		})
	}
}

// BenchmarkTable6 — storage sizes as reported metrics.
func BenchmarkTable6(b *testing.B) {
	fixtures(b)
	tr := fix.rels[storage.KindTiles].(interface {
		RawSizeBytes() int
		ColumnSizeBytes() int
		CompressedColumnSizeBytes() int
	})
	b.Run("sizes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tr.ColumnSizeBytes()
		}
		b.ReportMetric(float64(tr.RawSizeBytes()), "jsonb-bytes")
		b.ReportMetric(float64(tr.ColumnSizeBytes()), "tiles-bytes")
		b.ReportMetric(float64(tr.CompressedColumnSizeBytes()), "lz4-tiles-bytes")
	})
}

// BenchmarkFig18 — (de)serialization of the binary formats.
func BenchmarkFig18(b *testing.B) {
	for _, name := range []string{"canada", "twitter_api", "numbers"} {
		doc := simdjsonfiles.MustGenerate(name, 1, 99)
		jb := jsonb.Encode(doc)
		bs := bson.Marshal(doc)
		cb := cbor.Marshal(doc)
		b.Run("serialize/"+name+"/JSONB", func(b *testing.B) {
			var e jsonb.Encoder
			for i := 0; i < b.N; i++ {
				e.Encode(doc)
			}
		})
		b.Run("serialize/"+name+"/BSON", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bson.Marshal(doc)
			}
		})
		b.Run("serialize/"+name+"/CBOR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cbor.Marshal(doc)
			}
		})
		b.Run("deserialize/"+name+"/JSONB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jsonb.NewDoc(jb).Decode()
			}
		})
		b.Run("deserialize/"+name+"/BSON", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bson.Unmarshal(bs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("deserialize/"+name+"/CBOR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cbor.Unmarshal(cb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig19 — encoded sizes as metrics.
func BenchmarkFig19(b *testing.B) {
	for _, name := range simdjsonfiles.Names() {
		doc := simdjsonfiles.MustGenerate(name, 1, 99)
		b.Run(name, func(b *testing.B) {
			var jb []byte
			for i := 0; i < b.N; i++ {
				jb = jsonb.Encode(doc)
			}
			text := len(jsontext.Serialize(doc))
			b.ReportMetric(float64(len(bson.Marshal(doc)))/float64(text), "bson-rel")
			b.ReportMetric(float64(len(cbor.Marshal(doc)))/float64(text), "cbor-rel")
			b.ReportMetric(float64(len(jb))/float64(text), "jsonb-rel")
		})
	}
}

// BenchmarkFig20 — random nested accesses on each binary format.
func BenchmarkFig20(b *testing.B) {
	doc := simdjsonfiles.MustGenerate("twitter_api", 1, 99)
	jb := jsonb.Encode(doc)
	bs := bson.Marshal(doc)
	cb := cbor.Marshal(doc)
	b.Run("JSONB", func(b *testing.B) {
		d := jsonb.NewDoc(jb)
		for i := 0; i < b.N; i++ {
			st, _ := d.Get("statuses")
			el, _ := st.Index(i % 20)
			u, _ := el.Get("user")
			u.Get("screen_name")
		}
	})
	b.Run("BSON", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bson.LookupPath(bs, "statuses", fmt.Sprintf("%d", i%20), "user", "screen_name")
		}
	})
	b.Run("CBOR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _ := cbor.Lookup(cb, "statuses")
			if v.Kind() == jsonvalue.KindArray && v.Len() > 0 {
				v.Elem(i%v.Len()).GetPath("user", "screen_name")
			}
		}
	})
}

// Ablation benchmarks for the design decisions DESIGN.md calls out.

// BenchmarkAblationCastRewrite — typed pushed-down access (the §4.3
// rewriting) vs Text access plus an engine-level cast.
func BenchmarkAblationCastRewrite(b *testing.B) {
	fixtures(b)
	rel := fix.rels[storage.KindTiles]
	b.Run("rewritten", func(b *testing.B) {
		scan := engine.NewScan(rel, []storage.Access{
			exprparse.MustParse(`data->>'l_quantity'::BigInt`)}, nil, nil)
		gb := engine.NewGroupBy(scan, nil, nil, []engine.AggSpec{
			{Func: engine.Sum, Arg: expr.NewCol(0, expr.TBigInt), Name: "s"}})
		for i := 0; i < b.N; i++ {
			engine.Materialize(gb, 4)
		}
	})
	b.Run("text-then-cast", func(b *testing.B) {
		scan := engine.NewScan(rel, []storage.Access{
			exprparse.MustParse(`data->>'l_quantity'`)}, nil, nil)
		gb := engine.NewGroupBy(scan, nil, nil, []engine.AggSpec{
			{Func: engine.Sum, Arg: expr.NewCast(expr.NewCol(0, expr.TText), expr.TBigInt), Name: "s"}})
		for i := 0; i < b.N; i++ {
			engine.Materialize(gb, 4)
		}
	})
}

// BenchmarkAblationReorder — querying shuffled data loaded with and
// without partition reordering. The query mix includes joins over the
// smaller tables: those structures fall below the extraction threshold
// in *every* unordered tile (the dominant lineitem structure crowds
// them out), so reordering is what makes them columnar at all. A
// lineitem-only query (Q1) is neutral to reordering on this workload —
// the dominant structure already exceeds the threshold everywhere.
func BenchmarkAblationReorder(b *testing.B) {
	fixtures(b)
	for _, reorderOn := range []bool{false, true} {
		cfg := storage.DefaultLoaderConfig()
		cfg.Reorder = reorderOn
		l, _ := storage.NewLoader(storage.KindTiles, cfg)
		rel, err := l.Load("r", fix.tpchShuffled, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("querymix/reorder=%v", reorderOn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, num := range []int{3, 6, 10, 18} {
					q, _ := tpch.QueryByNum(num)
					q.Run(rel, 4)
				}
			}
		})
	}
}

// BenchmarkAblationMiningBudget — the Eq. 1 budget's effect on tile
// build time for wide documents.
func BenchmarkAblationMiningBudget(b *testing.B) {
	var docs []*jsontape.Doc
	for i := 0; i < 1024; i++ {
		var ms []jsonvalue.Member
		for k := 0; k < 24; k++ { // 24 co-occurring keys: 2^24 potential itemsets
			ms = append(ms, jsonvalue.M(fmt.Sprintf("k%02d", k), jsonvalue.Int(int64(i))))
		}
		d := new(jsontape.Doc)
		if err := jsontape.Parse(jsontext.Serialize(jsonvalue.Object(ms...)), d); err != nil {
			b.Fatal(err)
		}
		docs = append(docs, d)
	}
	for _, budget := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			cfg := tile.DefaultConfig()
			cfg.Budget = budget
			builder := tile.NewBuilder(cfg, nil)
			for i := 0; i < b.N; i++ {
				builder.BuildTape(docs)
			}
		})
	}
}

// BenchmarkAblationNumericString — §5.2 typed numeric strings vs text
// parsing on a price-heavy access.
func BenchmarkAblationNumericString(b *testing.B) {
	v, err := jsontext.ParseString(`{"price":"12345.67"}`)
	if err != nil {
		b.Fatal(err)
	}
	buf := jsonb.Encode(v)
	d := jsonb.NewDoc(buf)
	b.Run("typed-numeric-string", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := d.Get("price")
			if _, _, ok := p.NumericString(); !ok {
				b.Fatal("not numeric")
			}
		}
	})
	b.Run("text-parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := d.Get("price")
			s, _ := p.String()
			_ = s
		}
	})
}

// BenchmarkMiningFPGrowth — raw miner throughput on tile-sized inputs.
func BenchmarkMiningFPGrowth(b *testing.B) {
	txs := make([][]int32, 1024)
	for i := range txs {
		for k := int32(0); k < 12; k++ {
			if (i+int(k))%3 != 0 {
				txs[i] = append(txs[i], k)
			}
		}
	}
	m := fpgrowth.Miner{MinSupport: 614}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mine(txs)
	}
}
