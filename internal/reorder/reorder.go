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
//  6. the caller re-mines each reordered tile with the original
//     threshold to find the final extraction columns (tile.Builder.Build)
package reorder

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/fpgrowth"
	"repro/internal/jsontape"
	"repro/internal/jsonvalue"
	"repro/internal/keypath"
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

// Partition reorders one partition's documents in place. docs holds
// up to PartitionSize × TileSize documents in insertion order; after
// the call they are permuted so that tiles (consecutive TileSize
// runs) cluster tuples of equal frequent structure.
func Partition(docs []jsonvalue.Value, cfg tile.Config, m *tile.Metrics) Result {
	return partition(docs, cfg, m, tile.CollectTransactions)
}

// PartitionTapes is Partition over parsed tape documents. Transactions
// come straight from the tapes, so the permutation matches Partition
// over the materialized trees.
func PartitionTapes(tapes []*jsontape.Doc, cfg tile.Config, m *tile.Metrics) Result {
	return partition(tapes, cfg, m, tile.CollectTapeTransactions)
}

func partition[D any](docs []D, cfg tile.Config, m *tile.Metrics,
	collect func([]D, int, *keypath.Dict) [][]int32) Result {
	start := time.Now()
	defer func() {
		if m != nil {
			m.ReorderNanos.Add(time.Since(start).Nanoseconds())
		}
	}()
	if len(docs) == 0 || cfg.PartitionSize <= 1 {
		return Result{}
	}
	tileSize := cfg.TileSize
	if tileSize <= 0 {
		tileSize = tile.DefaultConfig().TileSize
	}
	if len(docs) <= tileSize {
		return Result{} // a single tile: nothing to redistribute
	}

	order, res, work := computeOrder(collect(docs, cfg.MaxArraySlots, keypath.NewDict()), cfg, tileSize)
	m.AddWork(work)
	if order == nil {
		return res
	}
	permuted := make([]D, len(docs))
	for newPos, oldPos := range order {
		permuted[newPos] = docs[oldPos]
		if newPos != oldPos {
			res.Moved++
		}
	}
	copy(docs, permuted)
	return res
}

// computeOrder runs steps 1-4 over the collected transactions and
// returns the tuple permutation (nil when nothing survives filtering),
// the partial Result (Moved is filled in by the caller) and the work
// it did.
func computeOrder(txs [][]int32, cfg tile.Config, tileSize int) ([]int, Result, fpgrowth.Work) {
	// Step 1: per-tile mining with the reduced threshold.
	reduced := cfg.Threshold / float64(cfg.PartitionSize)
	miner := fpgrowth.Miner{Budget: cfg.Budget}
	var candidates [][]int32
	for lo := 0; lo < len(txs); lo += tileSize {
		hi := min(lo+tileSize, len(txs))
		miner.MinSupport = max(int(math.Ceil(reduced*float64(hi-lo))), 1)
		for _, s := range miner.MineMaximal(txs[lo:hi]) {
			candidates = append(candidates, s.Items)
		}
	}

	// Steps 2 and 3 are functions of a transaction's item set, so they
	// run once per distinct set, weighted by the tuples that hold it.
	sets, weights, setOf := fpgrowth.Distinct(txs)

	// Step 2: exchange and filter. Deduplicate the candidates, then
	// count each one's exact partition-wide frequency; survivors need
	// threshold × tileSize matches.
	unique, _, _ := fpgrowth.Distinct(candidates)
	need := int(math.Ceil(cfg.Threshold * float64(tileSize)))
	var survivors []fpgrowth.Itemset
	for _, items := range unique {
		count := 0
		for k, tx := range sets {
			if fpgrowth.Overlap(items, tx) == len(items) {
				count += weights[k]
			}
		}
		miner.Work.SubsetTests += int64(len(sets))
		if count >= need {
			survivors = append(survivors, fpgrowth.Itemset{Items: items, Count: count})
		}
	}
	if len(survivors) == 0 {
		return nil, Result{}, miner.Work
	}
	// Deterministic survivor order: size desc, count desc, encoded
	// items asc.
	sort.Slice(survivors, func(i, j int) bool {
		a, b := survivors[i], survivors[j]
		if len(a.Items) != len(b.Items) {
			return len(a.Items) > len(b.Items)
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return lessEncoded(a.Items, b.Items)
	})

	// Step 3: match each distinct set to its best itemset (most items
	// in common, then largest, then minimal item-id sum); every tuple
	// takes its set's match.
	sums := make([]int64, len(survivors))
	for si, s := range survivors {
		sums[si] = itemSum(s.Items)
	}
	setMatch := make([]int, len(sets)) // survivor index, -1 = unmatched
	for k, tx := range sets {
		setMatch[k] = -1
		bestOverlap, bestSize := 0, 0
		bestSum := int64(math.MaxInt64)
		for si, s := range survivors {
			ov := fpgrowth.Overlap(s.Items, tx)
			if ov > bestOverlap || ov > 0 && ov == bestOverlap &&
				(len(s.Items) > bestSize || len(s.Items) == bestSize && sums[si] < bestSum) {
				bestOverlap, bestSize, bestSum = ov, len(s.Items), sums[si]
				setMatch[k] = si
			}
		}
		miner.Work.SubsetTests += int64(len(survivors))
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
	sort.SliceStable(pools, func(a, b int) bool { return len(pools[a]) > len(pools[b]) })
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

	return order, Result{SurvivingItemsets: len(survivors), Matched: matched}, miner.Work
}

// lessEncoded orders equal-length item lists as their little-endian
// byte encodings compare. It is the survivors' last tie-break, and so
// part of the permutation — and of the segment bytes — a partition
// gets.
func lessEncoded(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return bits.ReverseBytes32(uint32(a[i])) < bits.ReverseBytes32(uint32(b[i]))
		}
	}
	return false
}

func itemSum(items []int32) int64 {
	total := int64(0)
	for _, it := range items {
		total += int64(it)
	}
	return total
}
