package reorder

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/jsongen"
	"repro/internal/jsontape"
	"repro/internal/jsontext"
	"repro/internal/keypath"
	"repro/internal/tile"
)

// perTupleOrder is the reordering algorithm evaluated tuple by tuple,
// serially, with sorted-list merges for containment and overlap: step
// 2 counts every candidate against every transaction, step 3 scores
// every tuple against every survivor. computeOrder must return exactly
// its permutation and Result at any worker count.
func perTupleOrder(txs [][]int32, cfg tile.Config, tileSize int) ([]int, Result) {
	itemsKey := func(items []int32) string {
		b := make([]byte, 0, len(items)*4)
		for _, it := range items {
			b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
		}
		return string(b)
	}
	overlap := func(items, tx []int32) int {
		i, n := 0, 0
		for _, x := range items {
			for i < len(tx) && tx[i] < x {
				i++
			}
			if i < len(tx) && tx[i] == x {
				n++
				i++
			}
		}
		return n
	}
	containsAll := func(tx, items []int32) bool {
		i := 0
		for _, x := range items {
			for i < len(tx) && tx[i] < x {
				i++
			}
			if i >= len(tx) || tx[i] != x {
				return false
			}
			i++
		}
		return true
	}

	reduced := cfg.Threshold / float64(cfg.PartitionSize)
	var candidates []fpgrowth.Itemset
	for lo := 0; lo < len(txs); lo += tileSize {
		hi := min(lo+tileSize, len(txs))
		support := max(int(math.Ceil(reduced*float64(hi-lo))), 1)
		miner := fpgrowth.Miner{MinSupport: support, Budget: cfg.Budget}
		candidates = append(candidates, fpgrowth.Maximal(miner.Mine(txs[lo:hi]))...)
	}
	seen := map[string]bool{}
	var unique []fpgrowth.Itemset
	for _, s := range candidates {
		if k := itemsKey(s.Items); !seen[k] {
			seen[k] = true
			unique = append(unique, s)
		}
	}
	need := int(math.Ceil(cfg.Threshold * float64(tileSize)))
	var survivors []fpgrowth.Itemset
	for _, s := range unique {
		count := 0
		for _, tx := range txs {
			if containsAll(tx, s.Items) {
				count++
			}
		}
		if count >= need {
			s.Count = count
			survivors = append(survivors, s)
		}
	}
	if len(survivors) == 0 {
		return nil, Result{}
	}
	sort.Slice(survivors, func(i, j int) bool {
		a, b := survivors[i], survivors[j]
		if len(a.Items) != len(b.Items) {
			return len(a.Items) > len(b.Items)
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return itemsKey(a.Items) < itemsKey(b.Items)
	})
	matchOf := make([]int, len(txs))
	matched := 0
	for i, tx := range txs {
		matchOf[i] = -1
		bestOverlap, bestSize := 0, 0
		bestSum := int64(math.MaxInt64)
		for si, s := range survivors {
			ov := overlap(s.Items, tx)
			if ov == 0 {
				continue
			}
			sum := itemSum(s.Items)
			if ov > bestOverlap || ov == bestOverlap && len(s.Items) > bestSize ||
				ov == bestOverlap && len(s.Items) == bestSize && sum < bestSum {
				bestOverlap, bestSize, bestSum = ov, len(s.Items), sum
				matchOf[i] = si
			}
		}
		if matchOf[i] >= 0 {
			matched++
		}
	}

	groups := make([][]int, len(survivors))
	var unmatched []int
	for i, si := range matchOf {
		if si < 0 {
			unmatched = append(unmatched, i)
		} else {
			groups[si] = append(groups[si], i)
		}
	}
	var groupIdx []int
	for gi := range groups {
		if len(groups[gi]) > 0 {
			groupIdx = append(groupIdx, gi)
		}
	}
	sort.SliceStable(groupIdx, func(a, b int) bool { return len(groups[groupIdx[a]]) > len(groups[groupIdx[b]]) })
	var pools [][]int
	for _, gi := range groupIdx {
		pools = append(pools, groups[gi])
	}
	pools = append(pools, unmatched)
	order := make([]int, 0, len(txs))
	head, tail := 0, len(pools)-1
	for len(order) < len(txs) {
		space := min(tileSize, len(txs)-len(order))
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
		for space > 0 {
			for tail >= head && len(pools[tail]) == 0 {
				tail--
			}
			if tail < head {
				break
			}
			pool := pools[tail]
			t := min(space, len(pool))
			order = append(order, pool[len(pool)-t:]...)
			pools[tail] = pool[:len(pool)-t]
			space -= t
		}
	}
	return order, Result{SurvivingItemsets: len(survivors), Matched: matched}
}

// randomPartition draws a partition's transactions from 1–200
// structure signatures over a shared pool of paths, heavily skewed so
// that a few signatures repeat many times; item ids stay sorted and
// unique, as the collectors produce them, and spread past one byte so
// the survivors' encoded tie-break differs from numeric order.
func randomPartition(r *rand.Rand, n int) [][]int32 {
	pool := 4 + r.Intn(60)
	sigs := make([][]int32, 1+r.Intn(200))
	for s := range sigs {
		base := r.Intn(pool)
		for it := 0; it < pool; it++ {
			// Paths near a signature's base are likely, so signatures
			// overlap in runs of shared paths.
			if d := it - base; d >= 0 && d < 12 && r.Intn(4) > 0 || r.Intn(10) == 0 {
				sigs[s] = append(sigs[s], int32(it*61))
			}
		}
	}
	txs := make([][]int32, n)
	for i := range txs {
		txs[i] = slices.Clone(sigs[int(float64(len(sigs))*math.Pow(r.Float64(), 3))])
	}
	return txs
}

func TestComputeOrderMatchesPerTuple(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		c := tile.DefaultConfig()
		c.TileSize = 8 + r.Intn(120)
		c.PartitionSize = 2 + r.Intn(7)
		c.Threshold = []float64{0.6, 0.3, 0.9}[r.Intn(3)]
		c.Budget = []int{0, 64, 512}[r.Intn(3)]
		txs := randomPartition(r, c.TileSize+1+r.Intn(c.TileSize*(c.PartitionSize-1)))

		wantOrder, wantRes := perTupleOrder(txs, c, c.TileSize)
		var serialWork fpgrowth.Work
		for _, workers := range []int{1, 3} {
			gotOrder, gotRes, work := computeOrder(txs, c, c.TileSize, workers)
			if !reflect.DeepEqual(gotOrder, wantOrder) || gotRes != wantRes {
				t.Fatalf("trial %d workers %d (tile %d × %d, threshold %v, budget %d, %d tuples): got %+v %v\nwant %+v %v",
					trial, workers, c.TileSize, c.PartitionSize, c.Threshold, c.Budget, len(txs), gotRes, gotOrder, wantRes, wantOrder)
			}
			if workers == 1 {
				serialWork = work
			} else if work != serialWork {
				t.Fatalf("trial %d: work %+v at %d workers, %+v serially", trial, work, workers, serialWork)
			}
		}
	}
}

// The subset-test count is exact and does not grow with duplicates.
// Two disjoint 3-path structures alternate, so every tile mines the
// same 14 itemsets: each structure's 7 subsets. Maximal keeps the two
// 3-sets and tests the six 2-sets and six singles against them, 1 test
// for the first structure's and 2 for the second's: 18 per tile, 72
// over 4 tiles. Step 2 tests 2 candidates against 2 distinct
// transactions and step 3 scores 2 distinct transactions against 2
// survivors: 80 in all, whether a tile holds 10 tuples or 40. The
// FP-trees are the same shape at both sizes, so their node count is
// the same too.
func TestWorkPerDistinctTransaction(t *testing.T) {
	var fpNodes []int64
	for _, tileSize := range []int{10, 40} {
		var m tile.Metrics
		docs := interleave(mkDocs(2*tileSize, 0), mkDocs(2*tileSize, 1))
		res := PartitionTapes(docs, cfg(tileSize, 4), &m)
		if res.SurvivingItemsets != 2 || res.Matched != len(docs) {
			t.Fatalf("tile %d: %+v", tileSize, res)
		}
		if got := m.SubsetTests.Load(); got != 80 {
			t.Errorf("tile %d: %d subset tests, want 80", tileSize, got)
		}
		fpNodes = append(fpNodes, m.FPNodes.Load())
	}
	if fpNodes[0] == 0 || fpNodes[0] != fpNodes[1] {
		t.Errorf("FP-tree nodes at 10 and 40 tuples per tile: %v, want equal and nonzero", fpNodes)
	}
}

// TestCollectTilesMatchesOneDictionary: collecting tile by tile over
// dictionaries of their own, then renumbering, yields the transactions
// one dictionary over the whole partition yields, at any worker count.
func TestCollectTilesMatchesOneDictionary(t *testing.T) {
	walks := func(_ int, tapes []*jsontape.Doc) ([][]int32, []keypath.Item) {
		w := tile.WalkTapes(tapes, 4, nil)
		return w.Transactions(), w.Items
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(300)
		tapes := make([]*jsontape.Doc, n)
		for i := range tapes {
			tapes[i] = parse(string(jsontext.Serialize(jsongen.RandomObject(r, 3))))
		}
		tileSize := 1 + r.Intn(64)
		wantTapes := tile.CollectTapeTransactions(tapes, 4, keypath.NewDict())
		for _, workers := range []int{1, 3} {
			if got := collectTiles(tapes, tileSize, workers, walks); !sameTxs(got, wantTapes) {
				t.Fatalf("trial %d (%d docs, tile %d, workers %d): tapes differ", trial, n, tileSize, workers)
			}
		}
	}
}

// sameTxs compares transactions by their items: an empty transaction
// may be nil or not.
func sameTxs(a, b [][]int32) bool {
	return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(x, y) })
}
