package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/exprparse"
	"repro/internal/fpgrowth"
	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/lz4"
	"repro/internal/optimizer"
	"repro/internal/reorder"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tile"
	"repro/internal/vec"
)

// layerProbes are the per-layer numbers that cannot be read off the
// workload's own operations: a single-threaded staged replay of a
// corpus slice through the ingest and decode stages, one public call
// at a time, and single-worker probes of the kernels and operators
// over the workload's table.
type layerProbes struct {
	ParseMBps, ParseNsPerDoc                     float64
	ReorderUsPerDoc                              float64
	MineUsPerTile, ItemsetsPerTile               float64
	BuildUsPerDoc, ColumnsPerTile                float64
	EncodeUsPerDoc, JSONBBytesPerInputByte       float64
	LZ4CompressMBps, LZ4DecompressMBps, LZ4Ratio float64
	SegWriteMBps, SegOpenRequests, SegOpenMS     float64
	ColDecodeNsPerValue, DocsDecodeNsPerDoc      float64
	VecCmpRowsPerS, VecLikeRowsPerS              float64
	VecSumRowsPerS                               float64
	GroupByRowsPerS, HashJoinRowsPerS            float64
	TopKRowsPerS                                 float64
	ExplainUsPerQuery                            float64
}

// replayChunks picks up to four evenly spaced runs of batchDocs
// consecutive lines: each is replayed as one flush batch, so tile
// contents resemble what the append path builds.
func replayChunks(lines [][]byte, batchDocs int) [][][]byte {
	n := len(lines) / batchDocs
	if n == 0 {
		return [][][]byte{lines}
	}
	k := min(n, 4)
	var out [][][]byte
	for i := 0; i < k; i++ {
		lo := (i * n / k) * batchDocs
		out = append(out, lines[lo:lo+batchDocs])
	}
	return out
}

// stagedReplay pushes a corpus slice through the ingest stages and
// back out through the decode stages, single-threaded, timing each
// public call: jsontape.Parse → reorder.PartitionTapes → fpgrowth
// mining → tile.Builder.BuildTape → jsonb.EncodeTape → lz4.Compress →
// segment.WriteStore → segment.OpenStore → Reader.Column / Docs. The
// segment is opened through a store with the workload's request
// latency, so open_ms is what a table open pays per segment.
func stagedReplay(lp *layerProbes, lines [][]byte, sz sizes, tr *tracer) error {
	var (
		docs, tiles, columns, itemsets             int
		inBytes, jsonbBytes, rawBytes, lz4Bytes    int64
		segBytes, values, docsDecoded, openReqs    int64
		parseNs, reorderNs, mineNs, extractNs      int64
		encodeNs, compressNs, decompressNs         int64
		writeNs, openNs, colDecodeNs, docsDecodeNs int64
		opens                                      int
	)
	// span times one stage call.
	span := func(name string, ns *int64, fn func()) {
		id := tr.begin(name, 0, -1)
		t0 := time.Now()
		fn()
		*ns += int64(time.Since(t0))
		tr.end(id)
	}
	cfg := tile.DefaultConfig()
	mem := blockstore.NewMem()
	slow := blockstore.NewFakeS3(mem, blockstore.FakeS3Config{Latency: sz.StoreLatency, ThroughputBps: sz.StoreMBps << 20})
	for ci, chunk := range replayChunks(lines, sz.BatchDocs) {
		tapes := make([]*jsontape.Doc, len(chunk))
		var perr error
		span("jsontape.parse", &parseNs, func() {
			for i, l := range chunk {
				tapes[i] = new(jsontape.Doc)
				if err := jsontape.Parse(l, tapes[i]); err != nil && perr == nil {
					perr = err
				}
			}
		})
		if perr != nil {
			return fmt.Errorf("replay parse: %w", perr)
		}
		for _, l := range chunk {
			inBytes += int64(len(l))
		}
		docs += len(chunk)
		span("reorder.partition", &reorderNs, func() { reorder.PartitionTapes(tapes, cfg, nil) })

		st := stats.New(0, 0)
		var built []*tile.Tile
		for lo := 0; lo < len(tapes); lo += cfg.TileSize {
			part := tapes[lo:min(lo+cfg.TileSize, len(tapes))]
			// Mining alone, on the transactions the builder would
			// collect.
			txs := tile.CollectTapeTransactions(part, cfg.MaxArraySlots, keypath.NewDict())
			span("fpgrowth.mine", &mineNs, func() {
				miner := fpgrowth.Miner{MinSupport: cfg.MinSupport(len(part)), Budget: cfg.Budget}
				itemsets += len(fpgrowth.Maximal(miner.Mine(txs)))
			})
			// The builder's own phase clock separates column
			// extraction from the mining and JSONB encoding it also
			// does.
			m := &tile.Metrics{}
			var t *tile.Tile
			var buildNs int64
			span("tile.build", &buildNs, func() { t = tile.NewBuilder(cfg, m).BuildTape(part) })
			extractNs += m.Snapshot().ExtractNanos
			built = append(built, t)
			st.AddTile(t)
			tiles++
			columns += len(t.Columns())

			var enc jsonb.Encoder
			var payload []byte
			span("jsonb.encode", &encodeNs, func() {
				for _, d := range part {
					b := enc.EncodeTape(d)
					jsonbBytes += int64(len(b))
					payload = append(payload, b...)
				}
			})
			var packed []byte
			span("lz4.compress", &compressNs, func() { packed = lz4.Compress(nil, payload) })
			rawBytes += int64(len(payload))
			lz4Bytes += int64(len(packed))
			var derr error
			span("lz4.decompress", &decompressNs, func() { _, derr = lz4.DecompressAlloc(packed, len(payload)) })
			if derr != nil {
				return fmt.Errorf("replay lz4: %w", derr)
			}
		}

		name := fmt.Sprintf("replay-%d.seg", ci)
		var werr error
		span("segment.write", &writeNs, func() {
			var n int64
			n, werr = segment.WriteStore(mem, name, built, st)
			segBytes += n
		})
		if werr != nil {
			return fmt.Errorf("replay segment write: %w", werr)
		}
		pool := bufpool.New(poolLarge)
		var r *segment.Reader
		var oerr error
		reqs := slow.Requests()
		span("segment.open", &openNs, func() { r, oerr = segment.OpenStore(slow, name, pool) })
		if oerr != nil {
			return fmt.Errorf("replay segment open: %w", oerr)
		}
		openReqs += slow.Requests() - reqs
		opens++
		// The first access loads and decompresses each block into the
		// pool; the second finds it there and pays only the decode —
		// what every warm scan pays again.
		var rerr error
		for ti := 0; ti < r.NumTiles(); ti++ {
			ncols := len(r.Tile(ti).Columns)
			for c := 0; c < ncols; c++ {
				if _, _, err := r.Column(ti, c); err != nil {
					rerr = err
				}
			}
			if _, _, err := r.Docs(ti); err != nil {
				rerr = err
			}
			span("segment.column", &colDecodeNs, func() {
				for c := 0; c < ncols; c++ {
					col, _, err := r.Column(ti, c)
					if err != nil {
						rerr = err
						continue
					}
					values += int64(col.Len())
				}
			})
			span("segment.docs", &docsDecodeNs, func() {
				d, _, err := r.Docs(ti)
				if err != nil {
					rerr = err
				}
				docsDecoded += int64(len(d))
			})
		}
		r.Close()
		if rerr != nil {
			return fmt.Errorf("replay segment read: %w", rerr)
		}
	}
	lp.ParseMBps = mbPerS(inBytes, parseNs)
	lp.ParseNsPerDoc = ratio(float64(parseNs), float64(docs))
	lp.ReorderUsPerDoc = ratio(float64(reorderNs)/1e3, float64(docs))
	lp.MineUsPerTile = ratio(float64(mineNs)/1e3, float64(tiles))
	lp.ItemsetsPerTile = ratio(float64(itemsets), float64(tiles))
	lp.BuildUsPerDoc = ratio(float64(extractNs)/1e3, float64(docs))
	lp.ColumnsPerTile = ratio(float64(columns), float64(tiles))
	lp.EncodeUsPerDoc = ratio(float64(encodeNs)/1e3, float64(docs))
	lp.JSONBBytesPerInputByte = ratio(float64(jsonbBytes), float64(inBytes))
	lp.LZ4CompressMBps = mbPerS(rawBytes, compressNs)
	lp.LZ4DecompressMBps = mbPerS(rawBytes, decompressNs)
	lp.LZ4Ratio = ratio(float64(lz4Bytes), float64(rawBytes))
	lp.SegWriteMBps = mbPerS(segBytes, writeNs)
	lp.SegOpenRequests = ratio(float64(openReqs), float64(opens))
	lp.SegOpenMS = ratio(float64(openNs)/1e6, float64(opens))
	lp.ColDecodeNsPerValue = ratio(float64(colDecodeNs), float64(values))
	lp.DocsDecodeNsPerDoc = ratio(float64(docsDecodeNs), float64(docsDecoded))
	return nil
}

// probeSpec names, per corpus, the paths the kernel and operator
// probes run over: an integer column with a selective comparison, a
// text column with a LIKE pattern, a group-by key and value, the two
// sides of an equi-join, and a sort key.
type probeSpec struct {
	intAccess            string
	intOp                expr.CmpOp
	intConst             int64
	textAccess, like     string
	groupKey, groupVal   string
	joinBuild, joinProbe string
	sortKey              string
}

var probeSpecs = map[string]probeSpec{
	"twitter": {
		intAccess: "data->>'retweet_count'::BigInt", intOp: expr.GT, intConst: 500,
		textAccess: "data->>'text'", like: "%launch%",
		groupKey: "data->>'lang'", groupVal: "data->>'retweet_count'::BigInt",
		joinBuild: "data->'delete'->'status'->>'user_id'::BigInt", joinProbe: "data->'user'->>'id'::BigInt",
		sortKey: "data->>'favorite_count'::BigInt",
	},
	"tpch": {
		intAccess: "data->>'l_quantity'::BigInt", intOp: expr.LT, intConst: 24,
		textAccess: "data->>'l_comment'", like: "%final%",
		groupKey: "data->>'l_returnflag'", groupVal: "data->>'l_quantity'::BigInt",
		joinBuild: "data->>'o_orderkey'::BigInt", joinProbe: "data->>'l_orderkey'::BigInt",
		sortKey: "data->>'l_extendedprice'::Float",
	},
	"yelp": {
		intAccess: "data->>'useful'::BigInt", intOp: expr.GE, intConst: 10,
		textAccess: "data->>'text'", like: "%amazing%",
		groupKey: "data->>'business_id'", groupVal: "data->>'useful'::BigInt",
		joinBuild: "data->>'business_id'", joinProbe: "data->>'business_id'",
		sortKey: "data->>'useful'::BigInt",
	},
}

// probeRepeats is how often each probe runs; the median rate is kept.
const probeRepeats = 3

// kernelReps is how often a kernel runs per batch inside one timing,
// so that the clock reads cost little next to the kernel.
const kernelReps = 8

// probeKernels times vec kernels over the real column vectors of the
// table: the scan hands each batch to a callback that runs the kernel
// under the clock. Batches whose vector is not the typed kind the
// kernel is written for (absent path, boxed fallback) are left out.
func probeKernels(lp *layerProbes, rel scanRelation, ps probeSpec) {
	scan := func(access string, typed func(*vec.Vector) bool, kernel func(b *vec.Batch)) float64 {
		acc := exprparse.MustParse(access)
		var rates []float64
		for rep := 0; rep < probeRepeats; rep++ {
			var ns, rows int64
			rel.ScanBatches(context.Background(), []storage.Access{acc}, 1, func(_ int, b *vec.Batch) {
				if !typed(&b.Cols[0]) {
					return
				}
				t0 := time.Now()
				for k := 0; k < kernelReps; k++ {
					kernel(b)
				}
				ns += int64(time.Since(t0))
				rows += int64(b.Len) * kernelReps
			}, nil)
			rates = append(rates, ratio(float64(rows), float64(ns)/1e9))
		}
		return median(rates)
	}
	isInts := func(v *vec.Vector) bool { return v.Ints != nil }
	isText := func(v *vec.Vector) bool { return v.StrOff != nil || v.Dict }

	intT := exprparse.MustParse(ps.intAccess).Type
	cmp, _ := vec.Compile(expr.NewCmp(ps.intOp, expr.NewCol(0, intT), expr.NewConst(expr.IntValue(ps.intConst))), 1)
	csc := cmp.NewScratch()
	lp.VecCmpRowsPerS = scan(ps.intAccess, isInts, func(b *vec.Batch) { cmp.Sel(b, csc) })

	like, _ := vec.Compile(expr.NewLike(expr.NewCol(0, expr.TText), ps.like), 1)
	lsc := like.NewScratch()
	lp.VecLikeRowsPerS = scan(ps.textAccess, isText, func(b *vec.Batch) { like.Sel(b, lsc) })

	lp.VecSumRowsPerS = scan(ps.intAccess, isInts, func(b *vec.Batch) { vec.SumInts(&b.Cols[0], b.Sel, b.Len) })
}

// probeOperators times the engine's group-by, hash join and top-K
// over single-worker scans of the table. The relation wrapper's
// clocks split each run into scan self time and the rest; the rate is
// rows delivered by the scans over the rest — the operators' share.
func probeOperators(lp *layerProbes, dt scanRelation, ps probeSpec) {
	notNull := func(slot int, t expr.SQLType) expr.Expr { return expr.NewIsNull(expr.NewCol(slot, t), true) }
	acc := exprparse.MustParse
	measure := func(build func(rel storage.Relation) func()) float64 {
		var rates []float64
		for rep := 0; rep < probeRepeats; rep++ {
			n := &relCounts{}
			run := build(&tracedRel{inner: dt, ref: newOpRef(), n: n})
			t0 := time.Now()
			run()
			wall := int64(time.Since(t0))
			scanSelf := n.scanNs.Load() - n.emitNs.Load()
			rates = append(rates, ratio(float64(n.rows.Load()), float64(wall-scanSelf)/1e9))
		}
		return median(rates)
	}
	key, val := acc(ps.groupKey), acc(ps.groupVal)
	lp.GroupByRowsPerS = measure(func(rel storage.Relation) func() {
		scan := engine.NewScan(rel, []storage.Access{key, val}, nil, notNull(0, key.Type))
		gb := engine.NewGroupBy(scan, []expr.Expr{expr.NewCol(0, key.Type)}, []string{"k"},
			[]engine.AggSpec{{Func: engine.CountStar, Name: "n"}, {Func: engine.Sum, Arg: expr.NewCol(1, val.Type), Name: "s"}})
		return func() { engine.Materialize(gb, 1) }
	})
	bk, pk := acc(ps.joinBuild), acc(ps.joinProbe)
	lp.HashJoinRowsPerS = measure(func(rel storage.Relation) func() {
		build := engine.NewScan(rel, []storage.Access{bk}, nil, notNull(0, bk.Type))
		probe := engine.NewScan(rel, []storage.Access{pk}, nil, notNull(0, pk.Type))
		join := engine.NewHashJoin(build, probe, []int{0}, []int{0}, engine.SemiJoin)
		return func() { engine.CountRows(join, 1) }
	})
	sk := acc(ps.sortKey)
	lp.TopKRowsPerS = measure(func(rel storage.Relation) func() {
		scan := engine.NewScan(rel, []storage.Access{sk}, nil, notNull(0, sk.Type))
		ob := engine.NewOrderBy(scan, engine.OrderKey{E: expr.NewCol(0, sk.Type), Desc: true})
		ob.Limit = 100
		return func() { engine.Materialize(engine.NewLimit(ob, 100), 1) }
	})

	// Planning cost: the optimizer orders the probe join without
	// running it.
	q := optimizer.Query{
		Tables: []optimizer.TableSpec{
			{Alias: "b", Rel: dt, Accesses: []storage.Access{bk}, Filter: notNull(0, bk.Type)},
			{Alias: "p", Rel: dt, Accesses: []storage.Access{pk}, Filter: notNull(0, pk.Type)},
		},
		Joins: []optimizer.JoinSpec{{LeftAlias: "b", LeftSlot: 0, RightAlias: "p", RightSlot: 0}},
	}
	const plans = 200
	t0 := time.Now()
	for i := 0; i < plans; i++ {
		optimizer.Explain(q)
	}
	lp.ExplainUsPerQuery = float64(time.Since(t0)) / 1e3 / plans
}

// runLayerProbes runs the staged replay and the table probes for one
// workload, over the table the traced pass left in inner.
func runLayerProbes(lines [][]byte, sz sizes, inner blockstore.Store, tr *tracer) (*layerProbes, error) {
	lp := &layerProbes{}
	if err := stagedReplay(lp, lines, sz, tr); err != nil {
		return nil, err
	}
	dt, err := storage.OpenDirStore(tableName, inner, bufpool.New(poolLarge), storage.DefaultLoaderConfig(), 0, false)
	if err != nil {
		return nil, err
	}
	defer dt.Close()
	ps := probeSpecs[sz.Corpus]
	probeKernels(lp, dt, ps)
	probeOperators(lp, dt, ps)
	if err := dt.Err(); err != nil {
		return nil, fmt.Errorf("layer probes: scan error: %w", err)
	}
	return lp, nil
}
