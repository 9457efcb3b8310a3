// Package reorder implements the tile-partition tuple reordering of
// paper §3.2. Workloads without spatial locality (Figure 3's news
// items, shuffled inserts, parallel loading) spread each document
// structure thinly over all tiles, so no structure reaches the
// extraction threshold anywhere. Reordering clusters tuples with the
// same frequent itemset into the same tiles of a partition so the
// original threshold is met again.
//
// The six steps of the paper:
//
//  1. mine each tile with the threshold reduced to threshold/partitionSize
//  2. exchange itemsets across the partition; keep those whose exact
//     partition-wide frequency reaches threshold × tileSize
//  3. match every tuple to the itemset that describes it best (most
//     items in common, then largest, ties by minimal item-id sum so
//     every equal tuple matches the same itemset)
//  4. aggregate per-itemset counts and greedily map itemset groups to
//     tiles so the original threshold is reached where possible
//  5. move tuples to their assigned tiles (we apply the computed
//     permutation directly — the in-place swap schedule of the paper
//     is an artifact of paged storage and yields the same layout)
//  6. the caller extracts each reordered tile's frequent items at the
//     original threshold — the union of its maximal itemsets, found by
//     counting, not mining (fpgrowth.FrequentItems). PartitionTapesWorkers
//     hands the tile builds the walks steps 1–3 collected from
//     (Walks), so each document is walked once.
package reorder

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/fpgrowth"
	"repro/internal/jsontape"
	"repro/internal/keypath"
	"repro/internal/sched"
	"repro/internal/tile"
)

// Result reports what reordering did, for tests and diagnostics.
type Result struct {
	// SurvivingItemsets is the number of partition-wide frequent
	// itemsets used as cluster targets.
	SurvivingItemsets int
	// Matched is the number of tuples matched to some itemset.
	Matched int
	// Moved is the number of tuples whose position changed.
	Moved int
}

// PartitionTapes reorders one partition's parsed documents in place.
// tapes holds up to PartitionSize × TileSize documents in insertion
// order; after the call they are permuted so that tiles (consecutive
// TileSize runs) cluster tuples of equal frequent structure.
func PartitionTapes(tapes []*jsontape.Doc, cfg tile.Config, m *tile.Metrics) Result {
	res, _ := PartitionTapesWorkers(tapes, cfg, m, 1)
	return res
}

// PartitionTapesWorkers is PartitionTapes with the per-tile work —
// walking the documents and the step-1 mines — run as one morsel per
// tile on up to `workers` participants (sched.For). The permutation,
// the Result and the work counts do not depend on workers. The walks
// come back for the tile builds; they are nil when the partition was
// not walked (a single tile, or PartitionSize ≤ 1).
func PartitionTapesWorkers(tapes []*jsontape.Doc, cfg tile.Config, m *tile.Metrics, workers int) (Result, *Walks) {
	w := &Walks{tileSize: tileSizeOf(cfg)}
	w.src = make([]*tile.Walk, (len(tapes)+w.tileSize-1)/w.tileSize)
	res, order := partition(tapes, cfg, m, workers, func(k int, docs []*jsontape.Doc) ([][]int32, []keypath.Item) {
		w.src[k] = tile.WalkTapes(docs, cfg.MaxArraySlots, m)
		return w.src[k].Transactions(), w.src[k].Items
	})
	if len(w.src) == 0 || w.src[0] == nil {
		return res, nil
	}
	w.order = order
	return res, w
}

// Walks hands a reordered partition's walks to its tile builds: Tile(k)
// is the walk of the documents the permutation put in tile k.
type Walks struct {
	src      []*tile.Walk // the walk of each tile before reordering
	order    []int        // the permutation; nil when nothing moved
	tileSize int
}

// Tile returns tile k's walk: the tile's own walk when the permutation
// left its documents in place, else their runs regrouped from the
// walks that hold them (tile.Regroup). A nil Walks returns nil.
func (w *Walks) Tile(k int) *tile.Walk {
	if w == nil {
		return nil
	}
	if w.order == nil {
		return w.src[k]
	}
	lo := k * w.tileSize
	hi := lo + len(w.src[k].DocEnd)
	for p := lo; p < hi; p++ {
		if w.order[p] != p {
			return tile.Regroup(w.src, w.tileSize, w.order[lo:hi])
		}
	}
	return w.src[k]
}

func tileSizeOf(cfg tile.Config) int {
	if cfg.TileSize <= 0 {
		return tile.DefaultConfig().TileSize
	}
	return cfg.TileSize
}

// partition runs steps 1–5 over docs and returns the permutation it
// applied (nil when it moved nothing). collect(k, tile) collects tile
// k's transactions over a dictionary of its own and returns them with
// that dictionary's items; it runs once per tile, in a morsel of its
// own.
func partition(docs []*jsontape.Doc, cfg tile.Config, m *tile.Metrics, workers int,
	collect func(k int, tile []*jsontape.Doc) ([][]int32, []keypath.Item)) (Result, []int) {
	start := time.Now()
	defer func() {
		if m != nil {
			m.ReorderNanos.Add(time.Since(start).Nanoseconds())
		}
	}()
	if len(docs) == 0 || cfg.PartitionSize <= 1 {
		return Result{}, nil
	}
	tileSize := tileSizeOf(cfg)
	if len(docs) <= tileSize {
		return Result{}, nil // a single tile: nothing to redistribute
	}

	txs := collectTiles(docs, tileSize, workers, collect)
	order, res, work := computeOrder(txs, cfg, tileSize, workers)
	m.AddWork(work)
	if order == nil {
		return res, nil
	}
	permuted := make([]*jsontape.Doc, len(docs))
	for newPos, oldPos := range order {
		permuted[newPos] = docs[oldPos]
		if newPos != oldPos {
			res.Moved++
		}
	}
	copy(docs, permuted)
	return res, order
}

// collectTiles is collect over the whole partition with one dictionary,
// done one tile per morsel: each tile collects over a dictionary of its
// own, and the items are then renumbered as the partition dictionary
// numbers them — in order of first occurrence, so merging the tile
// dictionaries in tile order assigns the same ids — and each
// transaction is sorted.
func collectTiles(docs []*jsontape.Doc, tileSize, workers int,
	collect func(k int, tile []*jsontape.Doc) ([][]int32, []keypath.Item)) [][]int32 {
	nTiles := (len(docs) + tileSize - 1) / tileSize
	bounds := func(k int) (int, int) { return k * tileSize, min((k+1)*tileSize, len(docs)) }
	txs := make([][]int32, len(docs))
	items := make([][]keypath.Item, nTiles)
	sched.For(context.Background(), nTiles, workers, func(_, k int) {
		lo, hi := bounds(k)
		var tileTxs [][]int32
		tileTxs, items[k] = collect(k, docs[lo:hi])
		copy(txs[lo:hi], tileTxs)
	})
	partDict := keypath.NewDict()
	ids := make([][]int32, nTiles) // tile-local id → partition id
	for k, tileItems := range items {
		ids[k] = make([]int32, len(tileItems))
		for local, it := range tileItems {
			ids[k][local] = partDict.Add(it.Path, it.Type)
		}
	}
	sched.For(context.Background(), nTiles, workers, func(_, k int) {
		lo, hi := bounds(k)
		for _, tx := range txs[lo:hi] {
			for j, local := range tx {
				tx[j] = ids[k][local]
			}
			slices.Sort(tx)
		}
	})
	return txs
}

// computeOrder runs steps 1-4 over the collected transactions and
// returns the tuple permutation (nil when nothing survives filtering),
// the partial Result (Moved is filled in by the caller) and the work
// it did. Step 1 mines each tile in its own morsel on up to `workers`
// participants; the rest is serial.
func computeOrder(txs [][]int32, cfg tile.Config, tileSize, workers int) ([]int, Result, fpgrowth.Work) {
	// Step 1: per-tile mining with the reduced threshold.
	reduced := cfg.Threshold / float64(cfg.PartitionSize)
	nTiles := (len(txs) + tileSize - 1) / tileSize
	perTile := make([][]fpgrowth.Itemset, nTiles)
	works := make([]fpgrowth.Work, nTiles)
	sched.For(context.Background(), nTiles, workers, func(_, k int) {
		lo, hi := k*tileSize, min((k+1)*tileSize, len(txs))
		miner := fpgrowth.Miner{MinSupport: max(int(math.Ceil(reduced*float64(hi-lo))), 1), Budget: cfg.Budget}
		perTile[k] = miner.MineMaximal(txs[lo:hi])
		works[k] = miner.Work
	})
	var work fpgrowth.Work
	var candidates [][]int32
	for k, sets := range perTile {
		work.FPNodes += works[k].FPNodes
		work.SubsetTests += works[k].SubsetTests
		for _, s := range sets {
			candidates = append(candidates, s.Items)
		}
	}

	// Steps 2 and 3 are functions of a transaction's item set, so they
	// run once per distinct set, weighted by the tuples that hold it.
	// Sets and itemsets are bitsets over the partition's item ids:
	// containment and overlap are a word-wise AND and a popcount.
	sets, weights, setOf := fpgrowth.Distinct(txs)
	nItems := 0
	for _, set := range sets {
		if len(set) > 0 {
			nItems = max(nItems, int(set[len(set)-1])+1)
		}
	}
	setBits := newBitsets(sets, nItems)

	// Step 2: exchange and filter. Deduplicate the candidates, then
	// count each one's exact partition-wide frequency; survivors need
	// threshold × tileSize matches.
	unique, _, _ := fpgrowth.Distinct(candidates)
	candBits := newBitsets(unique, nItems)
	need := int(math.Ceil(cfg.Threshold * float64(tileSize)))
	var survivors []survivor
	for c, items := range unique {
		cb := candBits.row(c)
		count := 0
		for k := range sets {
			if containsAll(setBits.row(k), cb) {
				count += weights[k]
			}
		}
		work.SubsetTests += int64(len(sets))
		if count >= need {
			survivors = append(survivors, survivor{items: items, count: count, bits: cb, sum: itemSum(items)})
		}
	}
	if len(survivors) == 0 {
		return nil, Result{}, work
	}
	// Deterministic survivor order: size desc, count desc, encoded
	// items asc.
	slices.SortFunc(survivors, func(a, b survivor) int {
		if len(a.items) != len(b.items) {
			return cmp.Compare(len(b.items), len(a.items))
		}
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return compareEncoded(a.items, b.items)
	})

	// Step 3: match each distinct set to its best itemset (most items
	// in common, then largest, then minimal item-id sum); every tuple
	// takes its set's match.
	setMatch := make([]int, len(sets)) // survivor index, -1 = unmatched
	for k := range sets {
		tb := setBits.row(k)
		setMatch[k] = -1
		bestOverlap, bestSize := 0, 0
		bestSum := int64(math.MaxInt64)
		for si, s := range survivors {
			ov := overlap(s.bits, tb)
			if ov > bestOverlap || ov > 0 && ov == bestOverlap &&
				(len(s.items) > bestSize || len(s.items) == bestSize && s.sum < bestSum) {
				bestOverlap, bestSize, bestSum = ov, len(s.items), s.sum
				setMatch[k] = si
			}
		}
		work.SubsetTests += int64(len(survivors))
	}

	// Step 4+5: group tuples by matched itemset and map groups to
	// tiles greedily so each tile reaches the original threshold where
	// possible. Every tile is anchored by the largest remaining group;
	// leftover space is filled from unmatched tuples and the smallest
	// groups (which could not have filled a tile anyway), so large
	// groups are never diluted across tile boundaries — plain
	// contiguous packing would create boundary tiles where two groups
	// both miss the threshold. Within a group the original order is
	// kept (stable clustering preserves existing locality).
	groups := make([][]int, len(survivors))
	var unmatched []int
	for i, k := range setOf {
		if si := setMatch[k]; si < 0 {
			unmatched = append(unmatched, i)
		} else {
			groups[si] = append(groups[si], i)
		}
	}
	matched := len(txs) - len(unmatched)
	// Largest groups first; unmatched tuples act as the very smallest
	// "group" and are consumed as filler from the end of the list.
	var pools [][]int
	for _, g := range groups {
		if len(g) > 0 {
			pools = append(pools, g)
		}
	}
	slices.SortStableFunc(pools, func(a, b []int) int { return cmp.Compare(len(b), len(a)) })
	pools = append(pools, unmatched)

	order := make([]int, 0, len(txs))
	head, tail := 0, len(pools)-1
	for len(order) < len(txs) {
		space := min(tileSize, len(txs)-len(order))
		// Anchor: the largest remaining group.
		for head <= tail && len(pools[head]) == 0 {
			head++
		}
		if head > tail {
			break
		}
		take := min(space, len(pools[head]))
		order = append(order, pools[head][:take]...)
		pools[head] = pools[head][take:]
		space -= take
		// Fill remaining space from the smallest pools backwards.
		for space > 0 {
			for tail >= head && len(pools[tail]) == 0 {
				tail--
			}
			if tail < head {
				break
			}
			pool := pools[tail]
			t := min(space, len(pool))
			// Take from the pool's end: its head stays contiguous for
			// its own anchor tile later.
			order = append(order, pool[len(pool)-t:]...)
			pools[tail] = pool[:len(pool)-t]
			space -= t
		}
	}

	return order, Result{SurvivingItemsets: len(survivors), Matched: matched}, work
}

// survivor is a step-2 itemset with its partition-wide count, its
// bitset and its item-id sum (step 3's last tie-break).
type survivor struct {
	items []int32
	count int
	bits  []uint64
	sum   int64
}

// bitsets holds one fixed-width bitset over item ids per item set.
type bitsets struct {
	words int
	bits  []uint64
}

func newBitsets(sets [][]int32, nItems int) bitsets {
	b := bitsets{words: (nItems + 63) / 64}
	b.bits = make([]uint64, len(sets)*b.words)
	for i, set := range sets {
		row := b.row(i)
		for _, it := range set {
			row[it/64] |= 1 << (it % 64)
		}
	}
	return b
}

func (b bitsets) row(i int) []uint64 { return b.bits[i*b.words : (i+1)*b.words] }

// containsAll reports sub ⊆ set.
func containsAll(set, sub []uint64) bool {
	for i, w := range sub {
		if w&^set[i] != 0 {
			return false
		}
	}
	return true
}

// overlap counts the items two sets share.
func overlap(a, b []uint64) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// compareEncoded orders equal-length item lists as their
// little-endian byte encodings compare. It is the survivors' last
// tie-break, and so part of the permutation — and of the segment bytes
// — a partition gets.
func compareEncoded(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(bits.ReverseBytes32(uint32(a[i])), bits.ReverseBytes32(uint32(b[i])))
		}
	}
	return 0
}

func itemSum(items []int32) int64 {
	total := int64(0)
	for _, it := range items {
		total += int64(it)
	}
	return total
}
