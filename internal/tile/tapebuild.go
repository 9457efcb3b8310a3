package tile

import (
	"math"
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

// Tile construction consumes structural tapes (DESIGN.md §6.8): a
// build walks each tape once, recording (dictionary id, tape node)
// pairs, and columns then decode scalar payloads lazily, straight from
// the document bytes. A tile is what the paper's extraction makes of
// the parsed documents: dictionary ids in order of first occurrence,
// the frequent items extracted in that order, the last occurrence of a
// repeated key winning, and EncodeTape storing each document.

// CollectTapeTransactions returns one sorted item-id list per document
// over a shared dictionary. The partition reorderer gets the same lists
// from its tiles' walks (Walk.Transactions, renumbered to one partition
// dictionary).
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

// Walk is the structural walk of a run of tape documents: every leaf
// keypath.CollectTape reports, in walk order, as the id of its
// (path, type) item and its tape node. Leaves of document i are
// IDs[DocEnd[i-1]:DocEnd[i]] (DocEnd[-1] = 0); ids number Items in
// order of first occurrence, as a fresh keypath.Dict would.
type Walk struct {
	Items  []keypath.Item
	IDs    []int32
	Nodes  []jsontape.Node
	DocEnd []int32
}

// WalkTapes walks each document once, counting the walks and the
// subtrees the array-slot cap skipped in m (which may be nil).
func WalkTapes(tapes []*jsontape.Doc, maxSlots int, m *Metrics) *Walk {
	// A leaf takes at least two tape words unless it is an array
	// element, so half the words is a close first capacity.
	words := 0
	for _, d := range tapes {
		words += len(d.Tape)
	}
	dict := keypath.NewDict()
	w := &Walk{
		IDs:    make([]int32, 0, words/2),
		Nodes:  make([]jsontape.Node, 0, words/2),
		DocEnd: make([]int32, len(tapes)),
	}
	skipped := 0
	for i, d := range tapes {
		skipped += keypath.CollectTape(d, maxSlots, func(pathEnc []byte, t keypath.ValueType, n jsontape.Node) {
			w.IDs = append(w.IDs, dict.AddBytes(pathEnc, t))
			w.Nodes = append(w.Nodes, n)
		})
		w.DocEnd[i] = int32(len(w.IDs))
	}
	w.Items = dict.Items()
	obs.IngestSubtreesSkipped.Add(int64(skipped))
	if m != nil {
		m.SubtreesSkipped.Add(int64(skipped))
		m.TapeWalks.Add(int64(len(tapes)))
	}
	return w
}

// Transactions returns each document's set of item ids, in order of
// first occurrence within the document.
func (w *Walk) Transactions() [][]int32 {
	flat := make([]int32, 0, len(w.IDs))
	stamp := make([]int32, len(w.Items)) // 1 + the last document that took the item
	txs := make([][]int32, len(w.DocEnd))
	lo := int32(0)
	for i, hi := range w.DocEnd {
		start := len(flat)
		for _, id := range w.IDs[lo:hi] {
			if stamp[id] != int32(i+1) {
				stamp[id] = int32(i + 1)
				flat = append(flat, id)
			}
		}
		txs[i] = flat[start:len(flat):len(flat)]
		lo = hi
	}
	return txs
}

// Regroup returns the walk of the documents at positions, where
// position p is document p%tileSize of walks[p/tileSize]. The leaves
// keep their walk order and the items are numbered afresh in order of
// first occurrence, so the result is what walking those documents in
// that order yields.
func Regroup(walks []*Walk, tileSize int, positions []int) *Walk {
	docRun := func(p int) (*Walk, int32, int32) {
		w, i := walks[p/tileSize], p%tileSize
		lo := int32(0)
		if i > 0 {
			lo = w.DocEnd[i-1]
		}
		return w, lo, w.DocEnd[i]
	}
	n := int32(0)
	for _, p := range positions {
		_, lo, hi := docRun(p)
		n += hi - lo
	}
	out := &Walk{IDs: make([]int32, 0, n), Nodes: make([]jsontape.Node, 0, n), DocEnd: make([]int32, len(positions))}
	dict := keypath.NewDict()
	remap := make([][]int32, len(walks)) // per source walk: its id → the new id, -1 until seen
	for j, p := range positions {
		w, lo, hi := docRun(p)
		r := remap[p/tileSize]
		if r == nil {
			r = make([]int32, len(w.Items))
			for i := range r {
				r[i] = -1
			}
			remap[p/tileSize] = r
		}
		for _, id := range w.IDs[lo:hi] {
			if r[id] < 0 {
				r[id] = dict.Add(w.Items[id].Path, w.Items[id].Type)
			}
			out.IDs = append(out.IDs, r[id])
		}
		out.Nodes = append(out.Nodes, w.Nodes[lo:hi]...)
		out.DocEnd[j] = int32(len(out.IDs))
	}
	out.Items = dict.Items()
	return out
}

// BuildTape materializes one tile from parsed tapes: one walk per
// document, then BuildWalk.
func (b *Builder) BuildTape(tapes []*jsontape.Doc) *Tile {
	start := time.Now()
	w := WalkTapes(tapes, b.Config.MaxArraySlots, b.Metrics)
	if b.Metrics != nil {
		b.Metrics.MineNanos.Add(time.Since(start).Nanoseconds())
	}
	return b.BuildWalk(tapes, w)
}

// BuildWalk materializes one tile from parsed tapes and their walk
// (WalkTapes over these tapes, or a Regroup of walks in this order).
// The extraction set is the tile's frequent items
// (fpgrowth.FrequentItems): no tree is mined, and the walk's leaves
// feed the extraction pass.
func (b *Builder) BuildWalk(tapes []*jsontape.Doc, w *Walk) *Tile {
	obs.IngestDocsTape.Add(int64(len(tapes)))
	if b.Metrics != nil {
		b.Metrics.DocsTape.Add(int64(len(tapes)))
	}
	start := time.Now()
	extracted := fpgrowth.FrequentItems(w.IDs, w.DocEnd, len(w.Items), b.Config.MinSupport(len(tapes)), b.Config.Budget)
	if b.Metrics != nil {
		b.Metrics.MineNanos.Add(time.Since(start).Nanoseconds())
	}
	return b.materializeTape(tapes, w, extracted)
}

func (b *Builder) materializeTape(tapes []*jsontape.Doc, w *Walk, extracted []bool) *Tile {
	start := time.Now()
	items, ids, nodes, docEnd := w.Items, w.IDs, w.Nodes, w.DocEnd

	t := &Tile{
		numRows:    len(tapes),
		byItem:     map[keypath.Item]int{},
		byPath:     map[string][]int{},
		pathFreq:   map[string]int{},
		sketches:   map[string]*hll.Sketch{},
		histograms: map[string]*hist.Histogram{},
	}

	var orderedIDs []int32
	for id, item := range items {
		if extracted[id] && isExtractableType(item.Type) {
			orderedIDs = append(orderedIDs, int32(id))
		}
	}

	// Path frequency counts every non-null leaf occurrence: per item,
	// then per path.
	leaves := make([]int, len(items))
	for _, id := range ids {
		leaves[id]++
	}
	for id, item := range items {
		if item.Type != keypath.TypeNull {
			t.pathFreq[item.Path] += leaves[id]
		}
	}

	// Seen paths = every collected path plus its proper prefixes (an
	// access to ->'user' on a tile holding user.id must neither skip
	// nor return NULL-for-all), each marked whether some document holds
	// a container there. The dictionary already dedups paths, and the
	// prefixes of a container are containers.
	seen := map[string]bool{}
	for _, item := range items {
		if _, ok := seen[item.Path]; !ok {
			seen[item.Path] = false
		}
		keypath.Prefixes(item.Path, func(prefix string) bool {
			if seen[prefix] {
				return false
			}
			seen[prefix] = true
			return true
		})
	}

	// A document's value for a path is its last occurrence. A dense
	// docs × extracted-path matrix of flat-run indexes holds it: one
	// column per extracted PATH (all types share it), filled by a
	// forward scan so later occurrences overwrite earlier.
	extGroup := map[string]int32{}
	for _, id := range orderedIDs {
		path := items[id].Path
		if _, ok := extGroup[path]; !ok {
			extGroup[path] = int32(len(extGroup))
		}
	}
	G := len(extGroup)
	extOfID := make([]int32, len(items))
	for id, item := range items {
		if g, ok := extGroup[item.Path]; ok {
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
		item := items[id]
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
				if items[ids[li]].Type != keypath.TypeNull {
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

	t.notExtracted = bloom.New(len(seen)+8, 0.01)
	for p, asContainer := range seen {
		t.see(p, asContainer)
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
