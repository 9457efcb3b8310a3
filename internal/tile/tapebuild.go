package tile

import (
	"context"
	"math"
	"time"

	"repro/internal/bloom"
	"repro/internal/column"
	"repro/internal/dates"
	"repro/internal/fpgrowth"
	"repro/internal/hist"
	"repro/internal/hll"
	"repro/internal/jsonb"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/obs"
	"repro/internal/sched"
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

// docRun is the documents one JSONB morsel of a build encodes, and
// arenaChunk the size of the chunks a worker carves their JSONB from.
const (
	docRun     = 64
	arenaChunk = 32 << 10
)

// BuildTape materializes one tile from parsed tapes, walking them.
func (b *Builder) BuildTape(tapes []*jsontape.Doc) *Tile {
	return b.Build([][]*jsontape.Doc{tapes}, func(int) *Walk { return nil }, 1)[0]
}

// Build materializes one tile per part: parts[k] holds tile k's parsed
// documents and walk(k) their walk (WalkTapes over them, or a Regroup
// of walks in this order), or nil to walk them here. On up to workers
// participants, each tile plans; then every tile's columns and runs of
// docRun documents' JSONB share one queue, one morsel each, so tiles of
// unequal cost, as reordering makes them, keep every worker busy; then
// each tile indexes its columns. A worker keeps one encoder and arena.
func (b *Builder) Build(parts [][]*jsontape.Doc, walk func(k int) *Walk, workers int) []*Tile {
	ctx := context.Background()
	tiles := make([]*Tile, len(parts))
	cols := make([][]func(*buildScratch), len(parts))
	finish := make([]func(), len(parts))
	parallelFor(ctx, len(parts), workers, func(_, k int) {
		tiles[k], cols[k], finish[k] = b.plan(parts[k], walk(k))
	})
	var units []func(*buildScratch)
	for _, c := range cols {
		units = append(units, c...)
	}
	for k, docs := range parts {
		for lo := 0; lo < len(docs); lo += docRun {
			units = append(units, func(s *buildScratch) {
				start := time.Now()
				for i, d := range docs[lo:min(lo+docRun, len(docs))] {
					tiles[k].raw[lo+i] = s.doc(d)
				}
				b.Metrics.WriteJSONBNanos.Add(time.Since(start).Nanoseconds())
			})
		}
	}
	scratch := make([]buildScratch, max(workers, 1))
	parallelFor(ctx, len(units), workers, func(w, i int) { units[i](&scratch[w]) })
	for _, f := range finish {
		f()
	}
	return tiles
}

// parallelFor is sched.For; a test counts the morsels of a build.
var parallelFor = sched.For

// buildScratch is what a build worker reuses from morsel to morsel.
type buildScratch struct {
	enc   jsonb.Encoder
	arena []byte
}

// doc returns d's JSONB, carved from the arena. A document the arena
// has no room for is allocated on its own, and the arena starts afresh.
func (s *buildScratch) doc(d *jsontape.Doc) []byte {
	room := s.arena[len(s.arena):]
	doc := s.enc.AppendTape(room, d)
	if len(doc) > cap(room) {
		s.arena = make([]byte, 0, arenaChunk)
	} else {
		s.arena = s.arena[:len(s.arena)+len(doc)]
	}
	return doc[:len(doc):len(doc)]
}

// plan walks a tile's documents (unless w is their walk) and finds its
// frequent items, path frequencies, seen paths and each document's last
// leaf per extracted path. It returns the tile, a morsel per column to
// extract, and what indexes the columns once extracted.
func (b *Builder) plan(tapes []*jsontape.Doc, w *Walk) (*Tile, []func(*buildScratch), func()) {
	start := time.Now()
	if w == nil {
		w = WalkTapes(tapes, b.Config.MaxArraySlots, b.Metrics)
	}
	obs.IngestDocsTape.Add(int64(len(tapes)))
	b.Metrics.DocsTape.Add(int64(len(tapes)))
	extracted := fpgrowth.FrequentItems(w.IDs, w.DocEnd, len(w.Items), b.Config.MinSupport(len(tapes)), b.Config.Budget)
	b.Metrics.MineNanos.Add(time.Since(start).Nanoseconds())

	start = time.Now()
	items, ids, nodes, docEnd := w.Items, w.IDs, w.Nodes, w.DocEnd

	t := &Tile{
		numRows:    len(tapes),
		byItem:     map[keypath.Item]int{},
		byPath:     map[string][]int{},
		pathFreq:   map[string]int{},
		sketches:   map[string]*hll.Sketch{},
		histograms: map[string]*hist.Histogram{},
		raw:        make([][]byte, len(tapes)),
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
	b.Metrics.ExtractNanos.Add(time.Since(start).Nanoseconds())

	// Column j's morsel fills t.columns[j], sketches[j] and hists[j].
	t.columns = make([]ColumnInfo, len(orderedIDs))
	sketches := make([]*hll.Sketch, len(orderedIDs))
	hists := make([]*hist.Histogram, len(orderedIDs))
	cols := make([]func(*buildScratch), len(orderedIDs))
	for j, id := range orderedIDs {
		cols[j] = func(*buildScratch) {
			start := time.Now()
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
					v := n.ContentBytes()
					col.AppendBytes(v)
					sketch.AddBytes(v)
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
			info.Col = col
			t.columns[j], sketches[j] = info, sketch
			if len(numeric) > 0 {
				hists[j] = hist.FromValues(numeric)
			}
			b.Metrics.ExtractNanos.Add(time.Since(start).Nanoseconds())
		}
	}

	finish := func() {
		for j, c := range t.columns {
			t.byItem[keypath.Item{Path: c.Path, Type: c.MinedType}] = j
			t.byPath[c.Path] = append(t.byPath[c.Path], j)
			t.sketches[c.Path] = sketches[j]
			if hists[j] != nil {
				t.histograms[c.Path] = hists[j]
			}
		}
		t.notExtracted = bloom.New(len(seen)+8, 0.01)
		for p, asContainer := range seen {
			t.see(p, asContainer)
		}
		b.Metrics.TilesBuilt.Add(1)
		obs.TilesBuilt.Inc()
	}
	return t, cols, finish
}
