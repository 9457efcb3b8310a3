package fpgrowth

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// Mining over distinct transactions must be exact: the same FP-tree,
// the same itemsets and the same maximal sets as mining every
// transaction singly and filtering all pairs. These tests pin that
// against test-local copies of the per-transaction algorithms.

// allPairsMaximal is the all-pairs maximal filter: every set tested
// against every strictly larger set.
func allPairsMaximal(sets []Itemset) []Itemset {
	var out []Itemset
	for i, a := range sets {
		maximal := true
		for j, b := range sets {
			if i == j || len(a.Items) >= len(b.Items) {
				continue
			}
			if isSubset(a.Items, b.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Items) != len(out[j].Items) {
			return len(out[i].Items) > len(out[j].Items)
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return slices.Compare(out[i].Items, out[j].Items) < 0
	})
	return out
}

// singlyBuiltTree builds the FP-tree by inserting every transaction on
// its own with count 1, deduplicating items per transaction.
func singlyBuiltTree(transactions [][]int32, minSupport int) *fpTree {
	freq := map[int32]int{}
	for _, tx := range transactions {
		seen := map[int32]bool{}
		for _, it := range tx {
			if !seen[it] {
				seen[it] = true
				freq[it]++
			}
		}
	}
	var frequent []int32
	for it, c := range freq {
		if c >= minSupport {
			frequent = append(frequent, it)
		}
	}
	if len(frequent) == 0 {
		return nil
	}
	sort.Slice(frequent, func(i, j int) bool {
		if freq[frequent[i]] != freq[frequent[j]] {
			return freq[frequent[i]] > freq[frequent[j]]
		}
		return frequent[i] < frequent[j]
	})
	rank := map[int32]int{}
	for pos, it := range frequent {
		rank[it] = pos
	}
	tree := newTree(&Work{})
	for _, tx := range transactions {
		var path []int32
		for _, it := range tx {
			if _, ok := rank[it]; ok {
				path = append(path, it)
			}
		}
		if len(path) == 0 {
			continue
		}
		sort.Slice(path, func(i, j int) bool { return rank[path[i]] < rank[path[j]] })
		tree.insert(slices.Compact(path), 1)
	}
	return tree
}

// treeShape renders a tree completely: nodes in pre-order with item,
// count and child order, then every header's item, total and chain as
// pre-order node numbers.
func treeShape(t *fpTree) string {
	if t == nil {
		return "<nil>"
	}
	ids := map[*fpNode]int{}
	var b []byte
	var walk func(n *fpNode, depth int)
	walk = func(n *fpNode, depth int) {
		ids[n] = len(ids)
		b = fmt.Appendf(b, "%d:%d/%d ", depth, n.item, n.count)
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	for _, h := range t.headers {
		b = fmt.Appendf(b, "\n%d=%d:", h.item, h.count)
		for n := h.head; n != nil; n = n.nextLink {
			b = fmt.Appendf(b, " %d", ids[n])
		}
	}
	return string(b)
}

// randomTransactions draws n transactions from a few signatures over a
// shared item pool, so equal transactions repeat and signatures share
// items.
func randomTransactions(r *rand.Rand, n int) [][]int32 {
	nItems := 2 + r.Intn(14)
	sigs := make([][]int32, 1+r.Intn(12))
	for s := range sigs {
		for it := 0; it < nItems; it++ {
			if r.Intn(3) > 0 {
				sigs[s] = append(sigs[s], int32(it))
			}
		}
	}
	txs := make([][]int32, n)
	for i := range txs {
		sig := sigs[r.Intn(1+r.Intn(len(sigs)))] // skewed towards the first signatures
		txs[i] = slices.Clone(sig)
		if r.Intn(4) == 0 && len(txs[i]) > 0 {
			txs[i] = txs[i][:r.Intn(len(txs[i]))] // a rarer prefix
		}
	}
	return txs
}

// scramble returns a copy of tx with its items shuffled and some
// repeated — the same set of items.
func scramble(r *rand.Rand, tx []int32) []int32 {
	out := slices.Clone(tx)
	for _, it := range tx {
		if r.Intn(3) == 0 {
			out = append(out, it)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestDistinct(t *testing.T) {
	a, b := []int32{1, 2, 3}, []int32{2, 5}
	sets, weights, of := Distinct([][]int32{a, b, {3, 1, 2, 1}, nil, {5, 2}, {}})
	want := [][]int32{{1, 2, 3}, {2, 5}, nil}
	if !reflect.DeepEqual(sets, want) || !reflect.DeepEqual(weights, []int{2, 2, 2}) ||
		!reflect.DeepEqual(of, []int32{0, 1, 0, 2, 1, 2}) {
		t.Fatalf("Distinct = %v %v %v", sets, weights, of)
	}
	if &sets[0][0] != &a[0] || &sets[1][0] != &b[0] {
		t.Error("a transaction that already is a set was copied")
	}
}

func TestTreeMatchesSinglyBuiltTree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		txs := randomTransactions(r, 1+r.Intn(300))
		for i := range txs {
			if r.Intn(2) == 0 {
				txs[i] = scramble(r, txs[i])
			}
		}
		m := Miner{MinSupport: 1 + r.Intn(len(txs)/4+1)}
		got, _ := m.buildTree(txs)
		if want := singlyBuiltTree(txs, m.MinSupport); treeShape(got) != treeShape(want) {
			t.Fatalf("trial %d: tree\n%s\nwant\n%s", trial, treeShape(got), treeShape(want))
		}
	}
}

// Mining k copies of every transaction at k × the support finds the
// same itemsets with k × the counts, however the copies are ordered
// after the first occurrence and whatever order and repeats their items
// carry — also when the budget cuts the output.
func TestMineInvariantUnderDuplication(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		txs := randomTransactions(r, 1+r.Intn(200))
		support := 1 + r.Intn(len(txs)/3+1)
		budget := []int{0, 1 + r.Intn(64), 1 << 20}[r.Intn(3)]
		base := (&Miner{MinSupport: support, Budget: budget}).Mine(txs)

		k := 2 + r.Intn(3)
		dup := slices.Clone(txs)
		var copies [][]int32
		for c := 1; c < k; c++ {
			for _, tx := range txs {
				copies = append(copies, scramble(r, tx))
			}
		}
		r.Shuffle(len(copies), func(i, j int) { copies[i], copies[j] = copies[j], copies[i] })
		dup = append(dup, copies...)
		got := (&Miner{MinSupport: k * support, Budget: budget}).Mine(dup)

		want := make([]Itemset, len(base))
		for i, s := range base {
			want[i] = Itemset{Items: s.Items, Count: k * s.Count}
		}
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (support %d, budget %d, ×%d):\ngot  %v\nwant %v", trial, support, budget, k, got, want)
		}
	}
}

// Maximal, on any family, and the closed-family filter MineMaximal
// uses, on Mine's output, both return the all-pairs maximal sets.
func TestMaximalMatchesAllPairs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	check := func(name string, sets []Itemset) {
		t.Helper()
		if got, want := Maximal(sets), allPairsMaximal(sets); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Maximal(%v)\n= %v\nwant %v", name, sets, got, want)
		}
	}
	checkMined := func(name string, m Miner, txs [][]int32) {
		t.Helper()
		sets := m.Mine(txs)
		check(name, sets)
		if got, want := maximalClosed(sets, &Work{}), allPairsMaximal(sets); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: maximalClosed(%v)\n= %v\nwant %v", name, sets, got, want)
		}
		if got, want := m.MineMaximal(txs), allPairsMaximal(sets); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MineMaximal = %v\nwant %v", name, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		// Random families over a small universe, with duplicates.
		var sets []Itemset
		universe := 1 + r.Intn(10)
		for i := 0; i < r.Intn(40); i++ {
			var items []int32
			for it := 0; it < universe; it++ {
				if r.Intn(2) == 0 {
					items = append(items, int32(it))
				}
			}
			if len(items) == 0 {
				continue
			}
			s := Itemset{Items: items, Count: 1 + r.Intn(5)}
			sets = append(sets, s)
			if r.Intn(4) == 0 {
				sets = append(sets, Itemset{Items: slices.Clone(items), Count: s.Count + r.Intn(2)})
			}
		}
		r.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		check(fmt.Sprintf("family %d", trial), sets)

		// Mined families, budget-truncated and cut at maxK.
		txs := randomTransactions(r, 1+r.Intn(100))
		m := Miner{MinSupport: 1 + r.Intn(len(txs)/3+1), Budget: 1 + r.Intn(300)}
		checkMined(fmt.Sprintf("mined %d", trial), m, txs)
	}
	// One distinct transaction of 14 items: the budget cuts the
	// powerset at maxK, so every set of the largest mined size is
	// maximal. Budget 13 leaves maxK = 1 with more items frequent than
	// the budget, so Mine stops at 13 single items.
	one := make([][]int32, 50)
	for i := range one {
		one[i] = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	}
	for _, budget := range []int{13, 14, 105, 500, 2516, DefaultBudget} {
		checkMined(fmt.Sprintf("one transaction, budget %d", budget), Miner{MinSupport: 30, Budget: budget}, one)
	}
}

// Work counts repeat exactly and do not grow with duplicate
// transactions: one distinct 3-item transaction is one 3-node path,
// mined as a single path (no conditional trees). The maximal filter
// probes each of the three 2-sets for its 2 one-smaller subsets and
// the 3-set for its 3: 9 probes, and no pairwise test.
func TestWorkCounts(t *testing.T) {
	for _, copies := range []int{1, 100} {
		txs := make([][]int32, copies)
		for i := range txs {
			txs[i] = []int32{4, 7, 9}
		}
		m := Miner{MinSupport: copies}
		if got := m.MineMaximal(txs); len(got) != 1 || len(got[0].Items) != 3 {
			t.Fatalf("%d copies: maximal = %v", copies, got)
		}
		if m.Work != (Work{FPNodes: 3, SubsetTests: 9}) {
			t.Errorf("%d copies: work = %+v, want {FPNodes:3 SubsetTests:9}", copies, m.Work)
		}
	}
}

// flatten lays transactions out as the flat runs FrequentItems reads
// and returns the number of distinct items.
func flatten(txs [][]int32) (items, ends []int32, nItems int) {
	for _, tx := range txs {
		for _, it := range tx {
			items = append(items, it)
			nItems = max(nItems, int(it)+1)
		}
		ends = append(ends, int32(len(items)))
	}
	return items, ends, nItems
}

// topItems is the budget rule written out: the items of support at
// least minSupport, the budget most frequent of them when there are
// more, ties to the smaller id.
func topItems(txs [][]int32, minSupport, budget int) map[int32]bool {
	support := map[int32]int{}
	for _, tx := range txs {
		seen := map[int32]bool{}
		for _, it := range tx {
			if !seen[it] {
				seen[it] = true
				support[it]++
			}
		}
	}
	var frequent []int32
	for it, c := range support {
		if c >= minSupport {
			frequent = append(frequent, it)
		}
	}
	sort.Slice(frequent, func(i, j int) bool {
		a, b := frequent[i], frequent[j]
		return support[a] > support[b] || support[a] == support[b] && a < b
	})
	out := map[int32]bool{}
	for _, it := range frequent[:min(budget, len(frequent))] {
		out[it] = true
	}
	return out
}

// FuzzExtractionIsFrequentItems: on random transaction databases, with
// the budget below and above the number of frequent items, the tile's
// extraction set — FrequentItems — is the union of MineMaximal's sets
// whenever at most Budget items are frequent, and the top-Budget rule
// otherwise. The seeds run as a property test under go test.
func FuzzExtractionIsFrequentItems(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed*37), int8(seed%11)-6)
	}
	f.Fuzz(func(t *testing.T, seed int64, supportPick uint8, budgetDelta int8) {
		r := rand.New(rand.NewSource(seed))
		txs := randomTransactions(r, 1+r.Intn(200))
		for i := range txs {
			if r.Intn(3) == 0 {
				txs[i] = scramble(r, txs[i])
			}
		}
		minSupport := 1 + int(supportPick)%(len(txs)/2+1)
		nFrequent := len(topItems(txs, minSupport, math.MaxInt))
		budget := max(nFrequent+int(budgetDelta), 1)
		items, ends, nItems := flatten(txs)
		got := map[int32]bool{}
		for it, ok := range FrequentItems(items, ends, nItems, minSupport, budget) {
			if ok {
				got[int32(it)] = true
			}
		}

		want := topItems(txs, minSupport, budget)
		if nFrequent <= budget {
			union := map[int32]bool{}
			m := Miner{MinSupport: minSupport, Budget: budget}
			for _, s := range m.MineMaximal(txs) {
				for _, it := range s.Items {
					union[it] = true
				}
			}
			if !reflect.DeepEqual(union, want) {
				t.Fatalf("support %d, budget %d: the union of the maximal sets %v is not the frequent items %v", minSupport, budget, union, want)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("support %d, budget %d, %d frequent: FrequentItems = %v, want %v", minSupport, budget, nFrequent, got, want)
		}
	})
}
