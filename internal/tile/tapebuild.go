package tile

import (
	"math"
	"slices"
	"time"

	"repro/internal/bloom"
	"repro/internal/column"
	"repro/internal/dates"
	"repro/internal/fpgrowth"
	"repro/internal/hist"
	"repro/internal/hll"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/obs"
)

// Tape-driven tile construction: the same mining and extraction as
// Build, but consuming structural tapes (DESIGN.md §6.8). Where the
// tree path walks every document twice (once for transactions, once
// for leaves) over boxed jsonvalue nodes, BuildTape walks each tape
// once, recording (dictionary id, tape node) pairs; columns then
// decode scalar payloads lazily, straight from the document bytes.
// The resulting tile is byte-identical to Build over the materialized
// trees: same dictionary ids, same transactions, same column order
// and contents, and EncodeTape matches Encode byte for byte.

// CollectTapeTransactions is the tape analogue of CollectTransactions:
// one sorted item-id list per document over a shared dictionary. The
// partition reorderer uses it to cluster tapes before tile building.
func CollectTapeTransactions(tapes []*jsontape.Doc, maxSlots int, dict *keypath.Dict) [][]int32 {
	var flat []int32
	end := make([]int, len(tapes))
	for i, d := range tapes {
		keypath.CollectTape(d, maxSlots, func(pathEnc []byte, t keypath.ValueType, n jsontape.Node) {
			flat = append(flat, dict.AddBytes(pathEnc, t))
		})
		end[i] = len(flat)
	}
	txs := make([][]int32, len(tapes))
	lo := 0
	for i, hi := range end {
		txs[i] = sortDedup(flat[lo:hi:hi])
		lo = hi
	}
	return txs
}

// BuildTape materializes one tile from parsed tapes. It mirrors Build
// exactly but walks each document once: the walk yields both the
// mining transaction and the leaf nodes the extraction pass decodes.
func (b *Builder) BuildTape(tapes []*jsontape.Doc) *Tile {
	obs.IngestDocsTape.Add(int64(len(tapes)))
	if b.Metrics != nil {
		b.Metrics.DocsTape.Add(int64(len(tapes)))
	}

	start := time.Now()
	// Single walk per document: flat (id, node) pairs plus per-doc end
	// offsets. Leaf order within a document matches the tree walk, so
	// last-occurrence-wins semantics carry over unchanged.
	dict := keypath.NewDict()
	var (
		ids     []int32
		nodes   []jsontape.Node
		docEnd  = make([]int32, len(tapes))
		skipped int
	)
	for i, d := range tapes {
		skipped += keypath.CollectTape(d, b.Config.MaxArraySlots, func(pathEnc []byte, t keypath.ValueType, n jsontape.Node) {
			ids = append(ids, dict.AddBytes(pathEnc, t))
			nodes = append(nodes, n)
		})
		docEnd[i] = int32(len(ids))
	}
	obs.IngestSubtreesSkipped.Add(int64(skipped))
	if b.Metrics != nil {
		b.Metrics.SubtreesSkipped.Add(int64(skipped))
	}

	// Transactions are sorted-deduped runs of one copy: the flat run
	// keeps the original leaf order for the extraction pass.
	sorted := slices.Clone(ids)
	txs := make([][]int32, len(tapes))
	lo := int32(0)
	for i, hi := range docEnd {
		txs[i] = sortDedup(sorted[lo:hi:hi])
		lo = hi
	}
	miner := fpgrowth.Miner{MinSupport: b.Config.MinSupport(len(tapes)), Budget: b.Config.Budget}
	maximal := miner.MineMaximal(txs)
	if b.Metrics != nil {
		b.Metrics.MineNanos.Add(time.Since(start).Nanoseconds())
	}
	b.Metrics.AddWork(miner.Work)
	return b.materializeTape(tapes, dict, maximal, ids, nodes, docEnd)
}

func (b *Builder) materializeTape(tapes []*jsontape.Doc, dict *keypath.Dict,
	maximal []fpgrowth.Itemset, ids []int32, nodes []jsontape.Node, docEnd []int32) *Tile {
	start := time.Now()
	extractedIDs := map[int32]bool{}
	for _, s := range maximal {
		for _, id := range s.Items {
			extractedIDs[id] = true
		}
	}

	t := &Tile{
		numRows:    len(tapes),
		byItem:     map[keypath.Item]int{},
		byPath:     map[string][]int{},
		pathFreq:   map[string]int{},
		sketches:   map[string]*hll.Sketch{},
		histograms: map[string]*hist.Histogram{},
	}

	var orderedIDs []int32
	for id := int32(0); id < int32(dict.Len()); id++ {
		if extractedIDs[id] && isExtractableType(dict.Item(id).Type) {
			orderedIDs = append(orderedIDs, id)
		}
	}

	// Path frequency counts every non-null leaf occurrence, exactly as
	// the tree walk does.
	for _, id := range ids {
		if item := dict.Item(id); item.Type != keypath.TypeNull {
			t.pathFreq[item.Path]++
		}
	}

	// Seen paths = every collected path plus its proper prefixes (an
	// access to ->'user' on a tile holding user.id must neither skip
	// nor return NULL-for-all). The dictionary already dedups paths.
	seenPaths := map[string]bool{}
	for _, item := range dict.Items() {
		if seenPaths[item.Path] {
			continue
		}
		seenPaths[item.Path] = true
		p, err := keypath.ParsePath(item.Path)
		if err != nil {
			continue
		}
		for n := len(p.Segs) - 1; n >= 1; n-- {
			prefix := keypath.Path{Segs: p.Segs[:n]}.Encode()
			if seenPaths[prefix] {
				break
			}
			seenPaths[prefix] = true
		}
	}

	// The tree path gathers per-document leaves into a map keyed by
	// path with last-occurrence-wins. The tape equivalent is a dense
	// docs × extracted-path matrix of flat-run indexes: one column per
	// extracted PATH (all types share it, exactly like the map slot),
	// filled by a forward scan so later occurrences overwrite earlier.
	extGroup := map[string]int32{}
	for _, id := range orderedIDs {
		path := dict.Item(id).Path
		if _, ok := extGroup[path]; !ok {
			extGroup[path] = int32(len(extGroup))
		}
	}
	G := len(extGroup)
	extOfID := make([]int32, dict.Len())
	for id := 0; id < dict.Len(); id++ {
		if g, ok := extGroup[dict.Item(int32(id)).Path]; ok {
			extOfID[id] = g
		} else {
			extOfID[id] = -1
		}
	}
	eff := make([]int32, len(tapes)*G)
	for i := range eff {
		eff[i] = -1
	}
	lo := int32(0)
	for i := range tapes {
		hi := docEnd[i]
		for j := lo; j < hi; j++ {
			if g := extOfID[ids[j]]; g >= 0 {
				eff[i*G+int(g)] = j
			}
		}
		lo = hi
	}

	for _, id := range orderedIDs {
		item := dict.Item(id)
		g := int(extGroup[item.Path])
		info := ColumnInfo{Path: item.Path, MinedType: item.Type, StorageType: item.Type}

		if item.Type == keypath.TypeString && b.Config.DetectDates {
			var sample []string
			for i := range tapes {
				if li := eff[i*G+g]; li >= 0 && ids[li] == id {
					sample = append(sample, nodes[li].StringVal())
					if len(sample) >= 64 {
						break
					}
				}
			}
			if dates.DetectColumn(sample, 64) {
				info.StorageType = keypath.TypeTimestamp
			}
		}

		col := column.New(info.StorageType)
		sketch := hll.New()
		var numeric []float64
		for i := range tapes {
			li := eff[i*G+g]
			if li < 0 {
				col.AppendNull()
				continue
			}
			if ids[li] != id {
				col.AppendNull()
				if dict.Item(ids[li]).Type != keypath.TypeNull {
					info.HasTypeOutliers = true
				}
				continue
			}
			n := nodes[li]
			switch info.StorageType {
			case keypath.TypeBigInt:
				v := n.IntVal()
				col.AppendInt(v)
				sketch.AddInt64(v)
				numeric = append(numeric, float64(v))
			case keypath.TypeDouble:
				v := n.FloatVal()
				col.AppendFloat(v)
				sketch.AddHash(hll.HashUint64(math.Float64bits(v)))
				numeric = append(numeric, v)
			case keypath.TypeBool:
				v := n.BoolVal()
				col.AppendBool(v)
				if v {
					sketch.AddInt64(1)
				} else {
					sketch.AddInt64(0)
				}
			case keypath.TypeString:
				s := n.StringVal()
				col.AppendString(s)
				sketch.AddString(s)
			case keypath.TypeTimestamp:
				if ts, ok := dates.Parse(n.StringVal()); ok {
					col.AppendInt(ts)
					sketch.AddInt64(ts)
					numeric = append(numeric, float64(ts))
				} else {
					col.AppendNull()
					info.HasTypeOutliers = true
				}
			}
		}
		if info.StorageType == keypath.TypeString {
			maybeDictEncode(col, sketch)
		}
		idx := len(t.columns)
		info.Col = col
		t.columns = append(t.columns, info)
		t.byItem[keypath.Item{Path: item.Path, Type: item.Type}] = idx
		t.byPath[item.Path] = append(t.byPath[item.Path], idx)
		t.sketches[item.Path] = sketch
		if len(numeric) > 0 {
			t.histograms[item.Path] = hist.FromValues(numeric)
		}
	}

	t.notExtracted = bloom.New(len(seenPaths)+8, 0.01)
	for p := range seenPaths {
		if _, ok := t.byPath[p]; !ok {
			t.notExtracted.Add(p)
		}
	}
	if b.Metrics != nil {
		b.Metrics.ExtractNanos.Add(time.Since(start).Nanoseconds())
	}

	start = time.Now()
	t.raw = make([][]byte, len(tapes))
	for i, d := range tapes {
		t.raw[i] = b.enc.EncodeTape(d)
	}
	if b.Metrics != nil {
		b.Metrics.WriteJSONBNanos.Add(time.Since(start).Nanoseconds())
		b.Metrics.TilesBuilt.Add(1)
	}
	obs.TilesBuilt.Inc()
	return t
}
