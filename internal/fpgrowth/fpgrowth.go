// Package fpgrowth implements the FPGrowth frequent-itemset mining
// algorithm of Han et al. [29], which the tile extraction uses to find
// common key-path structures (paper §3.3). Unlike Apriori, FPGrowth
// generates no candidate sets: it compresses the transaction database
// into a prefix tree of frequent items (the FP-tree) and recursively
// mines conditional trees.
//
// Result-size explosion is the known hazard — in the worst case the
// number of frequent itemsets is the powerset of the frequent items.
// The miner therefore enforces the paper's budget (Eq. 1): it derives
// the largest itemset size k such that Σᵢ₌₁ᵏ C(n,i) stays within the
// budget u, bounds the recursion depth by k, and additionally caps the
// absolute number of emitted itemsets, degrading gracefully (smaller
// itemsets are produced first, exactly as the paper prescribes).
package fpgrowth

import (
	"cmp"
	"slices"
)

// Itemset is a set of item ids frequent in the mined database.
type Itemset struct {
	Items []int32 // sorted ascending
	Count int     // number of transactions containing every item
}

// Miner configures a mining run. The zero value is not useful: set
// MinSupport to an absolute transaction count.
type Miner struct {
	// MinSupport is the absolute frequency threshold: an itemset is
	// frequent iff at least MinSupport transactions contain it.
	MinSupport int
	// Budget is the paper's u — an upper bound on the number of
	// itemsets the miner may generate. Zero selects DefaultBudget.
	Budget int
	// Work accumulates what every Mine and MineMaximal call on this
	// Miner did.
	Work Work
}

// Work counts mining effort in units that do not depend on the host,
// so a change in algorithmic cost shows without timing noise.
type Work struct {
	// FPNodes counts FP-tree node updates: one per item of every path
	// inserted into an FP-tree, conditional trees included.
	FPNodes int64
	// SubsetTests counts itemset containment or overlap tests: a test
	// of one itemset against another, or a probe of MineMaximal's
	// filter for one one-smaller subset among the mined sets.
	SubsetTests int64
}

// DefaultBudget bounds itemset generation when the caller does not
// choose one. Tiles hold 2^10..2^12 tuples with tens of distinct key
// paths; 4096 potential itemsets is far beyond what extraction needs
// while keeping worst-case mining cheap.
const DefaultBudget = 4096

// fpNode is one FP-tree node. Children are kept in a small sorted
// slice: trees built from rigid machine-generated documents have tiny
// fan-out, where a slice beats a map.
type fpNode struct {
	item     int32
	count    int
	parent   *fpNode
	children []*fpNode
	nextLink *fpNode // header-table chain of nodes with the same item
}

func (n *fpNode) child(item int32) *fpNode {
	for _, c := range n.children {
		if c.item == item {
			return c
		}
	}
	return nil
}

type headerEntry struct {
	item  int32
	count int
	head  *fpNode
}

type fpTree struct {
	root    *fpNode
	headers []headerEntry // ascending total count (mining order)
	index   map[int32]int // item -> headers position
	work    *Work
}

// Distinct collapses transactions that hold the same set of items. It
// returns the distinct sets in order of first occurrence, each sorted
// ascending without duplicates; weights[k], the number of transactions
// holding sets[k]; and of[i], the index of transaction i's set. A
// transaction that is already sorted and duplicate-free is returned as
// is, not copied.
func Distinct(transactions [][]int32) (sets [][]int32, weights []int, of []int32) {
	of = make([]int32, len(transactions))
	byHash := map[uint64][]int32{} // hash → the sets with that hash
	for i, tx := range transactions {
		if !isSet(tx) {
			tx = slices.Clone(tx)
			slices.Sort(tx)
			tx = slices.Compact(tx)
		}
		h := hashItems(tx)
		k := int32(-1)
		for _, j := range byHash[h] {
			if slices.Equal(sets[j], tx) {
				k = j
				break
			}
		}
		if k < 0 {
			k = int32(len(sets))
			byHash[h] = append(byHash[h], k)
			sets = append(sets, tx)
			weights = append(weights, 0)
		}
		weights[k]++
		of[i] = k
	}
	return sets, weights, of
}

// isSet reports whether items is strictly ascending.
func isSet(items []int32) bool {
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			return false
		}
	}
	return true
}

// hashItems is FNV-1a over the item ids; Distinct checks every hash
// match for equality, so collisions cost time, never correctness.
func hashItems(items []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, it := range items {
		h = (h ^ uint64(uint32(it))) * 1099511628211
	}
	return h
}

// Mine returns all frequent itemsets of the transaction database,
// subject to MinSupport and the budget. Each transaction is a set of
// item ids (duplicates within a transaction are ignored). Itemsets
// come out deterministically ordered: ascending size, then
// lexicographically by items.
func (m *Miner) Mine(transactions [][]int32) []Itemset {
	out := m.mine(transactions)
	slices.SortFunc(out, compareItemsets)
	return out
}

// mine is Mine without the final sort.
func (m *Miner) mine(transactions [][]int32) []Itemset {
	if m.MinSupport < 1 {
		return nil
	}
	budget := m.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	tree, nFrequent := m.buildTree(transactions)
	if nFrequent == 0 {
		return nil
	}
	// Depth bound from Eq. 1.
	st := &mineState{minSupport: m.MinSupport, budget: budget, maxK: maxItemsetSize(nFrequent, budget)}
	st.mine(tree, nil)
	return st.out
}

// buildTree builds the FP-tree of the transactions' frequent items and
// returns it with the number of frequent items.
func (m *Miner) buildTree(transactions [][]int32) (*fpTree, int) {
	// Pass 1: global item frequencies, once per distinct transaction.
	sets, weights, _ := Distinct(transactions)
	freq := map[int32]int{}
	for k, set := range sets {
		for _, it := range set {
			freq[it] += weights[k]
		}
	}
	var frequentItems []int32
	for it, c := range freq {
		if c >= m.MinSupport {
			frequentItems = append(frequentItems, it)
		}
	}
	if len(frequentItems) == 0 {
		return nil, 0
	}

	// Insertion order: descending frequency, ties by ascending item id
	// (deterministic trees regardless of map iteration order).
	rank := make(map[int32]int32, len(frequentItems))
	slices.SortFunc(frequentItems, func(a, b int32) int {
		if fa, fb := freq[a], freq[b]; fa != fb {
			return cmp.Compare(fb, fa)
		}
		return cmp.Compare(a, b)
	})
	for pos, it := range frequentItems {
		rank[it] = int32(pos)
	}

	// Pass 2: build the FP-tree, each distinct path once with its
	// weight. Repeats of a path create no nodes, so inserting in order
	// of first occurrence builds the tree — child order and header
	// chains included — that inserting every transaction singly builds.
	tree := newTree(&m.Work)
	path := make([]int32, 0, 16)
	for k, set := range sets {
		path = path[:0]
		for _, it := range set {
			if r, ok := rank[it]; ok {
				path = append(path, r)
			}
		}
		if len(path) == 0 {
			continue
		}
		slices.Sort(path)
		for i, r := range path {
			path[i] = frequentItems[r]
		}
		tree.insert(path, weights[k])
	}
	return tree, len(frequentItems)
}

// MineMaximal is Maximal(m.Mine(transactions)). Mine's output is closed
// under subsets, so the filter is maximalClosed, whose probes are
// counted in m.Work.
func (m *Miner) MineMaximal(transactions [][]int32) []Itemset {
	return maximalClosed(m.mine(transactions), &m.Work)
}

func newTree(work *Work) *fpTree {
	return &fpTree{root: &fpNode{item: -1}, index: map[int32]int{}, work: work}
}

// insert adds one (pattern-ordered, deduplicated) transaction path,
// accumulating header-table support totals as it goes.
func (t *fpTree) insert(items []int32, count int) {
	cur := t.root
	for _, it := range items {
		next := cur.child(it)
		if next == nil {
			next = &fpNode{item: it, parent: cur}
			cur.children = append(cur.children, next)
			hi, ok := t.index[it]
			if !ok {
				hi = len(t.headers)
				t.index[it] = hi
				t.headers = append(t.headers, headerEntry{item: it})
			}
			next.nextLink = t.headers[hi].head
			t.headers[hi].head = next
		}
		next.count += count
		cur = next
	}
	t.work.FPNodes += int64(len(items))
	for _, it := range items {
		t.headers[t.index[it]].count += count
	}
}

// singlePath returns the single chain of nodes when the tree is a
// path, enabling the classic all-combinations shortcut.
func (t *fpTree) singlePath() []*fpNode {
	var path []*fpNode
	cur := t.root
	for {
		if len(cur.children) == 0 {
			return path
		}
		if len(cur.children) > 1 {
			return nil
		}
		cur = cur.children[0]
		path = append(path, cur)
	}
}

type mineState struct {
	minSupport int
	budget     int
	maxK       int
	generated  int
	out        []Itemset
	// arena holds the items of every emitted set. A set is a capped
	// slice of it, so a later append never writes into an earlier set,
	// and one that regrows the arena leaves the earlier sets on the old
	// backing array, which nothing writes again.
	arena []int32
}

// emit copies items into the arena, so callers may reuse their buffer.
func (s *mineState) emit(items []int32, count int) bool {
	if s.generated >= s.budget {
		return false
	}
	s.generated++
	lo := len(s.arena)
	s.arena = append(s.arena, items...)
	sorted := s.arena[lo:len(s.arena):len(s.arena)]
	slices.Sort(sorted)
	s.out = append(s.out, Itemset{Items: sorted, Count: count})
	return true
}

// mine recursively emits suffix-extended itemsets. Header entries are
// processed in ascending support order (the FPGrowth convention).
func (s *mineState) mine(t *fpTree, suffix []int32) {
	if s.generated >= s.budget || len(suffix) >= s.maxK {
		return
	}
	// Single-path shortcut: every combination of path nodes is
	// frequent with the count of its deepest node.
	if path := t.singlePath(); path != nil {
		s.minePath(path, suffix)
		return
	}

	headers := append([]headerEntry(nil), t.headers...)
	slices.SortFunc(headers, func(a, b headerEntry) int {
		if a.count != b.count {
			return cmp.Compare(a.count, b.count)
		}
		return cmp.Compare(a.item, b.item)
	})
	for _, h := range headers {
		if h.count < s.minSupport {
			continue
		}
		itemset := append(append([]int32(nil), suffix...), h.item)
		if !s.emit(itemset, h.count) {
			return
		}
		if len(itemset) >= s.maxK {
			continue
		}
		// Conditional pattern base: prefix paths of every node
		// carrying h.item.
		cond := newTree(t.work)
		var prefix []int32
		for node := h.head; node != nil; node = node.nextLink {
			prefix = prefix[:0]
			for p := node.parent; p != nil && p.item != -1; p = p.parent {
				prefix = append(prefix, p.item)
			}
			if len(prefix) == 0 {
				continue
			}
			// prefix is leaf→root; reverse to root→leaf insertion order.
			slices.Reverse(prefix)
			cond.insert(prefix, node.count)
		}
		if len(cond.headers) > 0 {
			cond.prune(s.minSupport)
			s.mine(cond, itemset)
		}
	}
}

// minePath emits all combinations of a single-path tree appended to
// the suffix, smallest combinations first so budget exhaustion keeps
// the small itemsets (graceful degradation).
func (s *mineState) minePath(path []*fpNode, suffix []int32) {
	// Filter to frequent nodes.
	var nodes []*fpNode
	for _, n := range path {
		if n.count >= s.minSupport {
			nodes = append(nodes, n)
		}
	}
	maxChoose := min(s.maxK-len(suffix), len(nodes))
	idx := make([]int, 0, maxChoose)
	items := make([]int32, len(suffix), len(suffix)+maxChoose)
	copy(items, suffix)
	var rec func(start int)
	rec = func(start int) {
		if len(idx) > 0 {
			// Support of a combination is the count of its deepest
			// (last, since path order is root→leaf) node.
			items = items[:len(suffix)]
			minCount := nodes[idx[0]].count
			for _, i := range idx {
				items = append(items, nodes[i].item)
				if nodes[i].count < minCount {
					minCount = nodes[i].count
				}
			}
			if !s.emit(items, minCount) {
				return
			}
		}
		if len(idx) >= maxChoose {
			return
		}
		for i := start; i < len(nodes); i++ {
			idx = append(idx, i)
			rec(i + 1)
			idx = idx[:len(idx)-1]
			if s.generated >= s.budget {
				return
			}
		}
	}
	rec(0)
}

// prune removes infrequent items from a conditional tree by filtering
// its header table; nodes stay in place (their paths simply skip
// infrequent items during the next conditional-base walk). For
// correctness of count propagation we rebuild instead: cheaper trees
// are tiny in practice.
func (t *fpTree) prune(minSupport int) {
	keep := map[int32]bool{}
	for _, h := range t.headers {
		if h.count >= minSupport {
			keep[h.item] = true
		}
	}
	if len(keep) == len(t.headers) {
		return
	}
	// Rebuild the tree with only kept items.
	old := *t
	*t = *newTree(old.work)
	var walk func(n *fpNode, path []int32)
	walk = func(n *fpNode, path []int32) {
		if n.item >= 0 && keep[n.item] {
			path = append(path, n.item)
		}
		childSum := 0
		for _, c := range n.children {
			childSum += c.count
			walk(c, path)
		}
		// A node's own weight beyond its children represents
		// transactions ending here.
		if n.item >= 0 {
			if own := n.count - childSum; own > 0 && len(path) > 0 {
				t.insert(path, own)
			}
		}
	}
	walk(old.root, nil)
}

// maxItemsetSize computes the largest k with Σᵢ₌₁ᵏ C(n,i) ≤ u (Eq. 1),
// with k at least 1 so mining always proceeds.
func maxItemsetSize(n, u int) int {
	total := 0
	binom := 1
	for k := 1; k <= n; k++ {
		// C(n,k) = C(n,k-1) * (n-k+1) / k, guarded against overflow.
		binom = binom * (n - k + 1) / k
		if binom < 0 || total+binom > u {
			if k == 1 {
				return 1
			}
			return k - 1
		}
		total += binom
	}
	return n
}

// Maximal filters sets to those not strictly contained in another
// set of the family (§3.1 step 3). It visits sets largest first and
// tests each only against the maximal sets already found that are
// strictly larger. That suffices: a set inside a non-maximal superset
// is also inside the maximal set containing that superset, which is
// larger still and visited earlier.
func Maximal(sets []Itemset) []Itemset {
	bySize := slices.Clone(sets)
	slices.SortStableFunc(bySize, func(a, b Itemset) int { return len(b.Items) - len(a.Items) })
	var out []Itemset
	for _, a := range bySize {
		isMax := true
		for _, b := range out {
			if len(b.Items) <= len(a.Items) {
				break
			}
			if isSubset(a.Items, b.Items) {
				isMax = false
				break
			}
		}
		if isMax {
			out = append(out, a)
		}
	}
	sortMaximal(out)
	return out
}

// maximalClosed is Maximal for a family of distinct sets that holds
// every non-empty subset of each of its sets. Mine's output is such a
// family: it emits every frequent itemset of at most maxK items unless
// the budget stops it, and Eq. 1 picks maxK so that at most u such sets
// exist, except when maxK is 1 — and a family of single items has no
// subsets to miss. In such a family a set s is not maximal iff some
// member t strictly contains it, and then s plus any item of t \ s is a
// member too. So s is not maximal iff it is a one-smaller subset of a
// member, and marking those subsets costs one probe per item of every
// set instead of a test per pair. The hash of a set is the sum of its
// items' hashes, so a subset's hash is its set's minus one item's; each
// hash match is checked item by item.
func maximalClosed(sets []Itemset, work *Work) []Itemset {
	hashes := make([]uint64, len(sets))
	head := make(map[uint64]int32, len(sets)) // hash → 1 + the last set with it
	next := make([]int32, len(sets))          // 1 + the previous set with the same hash
	for i, s := range sets {
		h := uint64(0)
		for _, it := range s.Items {
			h += mixItem(it)
		}
		hashes[i] = h
		next[i] = head[h]
		head[h] = int32(i + 1)
	}
	covered := make([]bool, len(sets))
	for i, s := range sets {
		if len(s.Items) < 2 {
			continue
		}
		work.SubsetTests += int64(len(s.Items))
		for j, it := range s.Items {
			for k := head[hashes[i]-mixItem(it)]; k > 0; k = next[k-1] {
				if sub := sets[k-1].Items; len(sub) == len(s.Items)-1 && equalWithout(sub, s.Items, j) {
					covered[k-1] = true
					break
				}
			}
		}
	}
	var out []Itemset
	for i, s := range sets {
		if !covered[i] {
			out = append(out, s)
		}
	}
	sortMaximal(out)
	return out
}

// mixItem is the splitmix64 finalizer of an item id: a set's hash is
// the sum over its items.
func mixItem(it int32) uint64 {
	x := uint64(uint32(it)) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// equalWithout reports whether sub equals set with its j-th item
// removed.
func equalWithout(sub, set []int32, j int) bool {
	return slices.Equal(sub[:j], set[:j]) && slices.Equal(sub[j:], set[j+1:])
}

// FrequentItems returns the extraction set of a tile (§3.1): the union
// of the maximal itemsets that MineMaximal finds. That union is the set
// of frequent single items — every frequent item is a frequent 1-itemset
// inside some maximal one, and every item of a frequent itemset is
// frequent — so counting support per item finds it without a tree.
// Mining can only differ when more than the budget u of items are
// frequent: Eq. 1 then cuts mining to single items and the budget to u
// of them, and FrequentItems keeps the u most frequent, ties to the
// smaller id.
//
// The database is held as flat runs: transaction i is
// items[ends[i-1]:ends[i]] (ends[-1] = 0), may repeat items, and every
// item is below nItems. The result is indexed by item.
func FrequentItems(items, ends []int32, nItems, minSupport, budget int) []bool {
	out := make([]bool, nItems)
	if minSupport < 1 {
		return out // as Mine, which finds nothing below support 1
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	support := make([]int32, nItems)
	stamp := make([]int32, nItems) // 1 + the last transaction that counted the item
	lo := int32(0)
	for i, hi := range ends {
		for _, it := range items[lo:hi] {
			if stamp[it] != int32(i+1) {
				stamp[it] = int32(i + 1)
				support[it]++
			}
		}
		lo = hi
	}
	var frequent []int32
	for it, c := range support {
		if int(c) >= minSupport {
			frequent = append(frequent, int32(it))
		}
	}
	if len(frequent) > budget {
		slices.SortFunc(frequent, func(a, b int32) int {
			if support[a] != support[b] {
				return cmp.Compare(support[b], support[a])
			}
			return cmp.Compare(a, b)
		})
		frequent = frequent[:budget]
	}
	for _, it := range frequent {
		out[it] = true
	}
	return out
}

// sortMaximal orders maximal sets largest, then most frequent first.
func sortMaximal(out []Itemset) {
	slices.SortFunc(out, func(a, b Itemset) int {
		if len(a.Items) != len(b.Items) {
			return cmp.Compare(len(b.Items), len(a.Items))
		}
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return slices.Compare(a.Items, b.Items)
	})
}

// isSubset reports a ⊆ b for sorted slices.
func isSubset(a, b []int32) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// Contains reports whether the sorted itemset contains item.
func (s Itemset) Contains(item int32) bool {
	lo, hi := 0, len(s.Items)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.Items[mid] < item:
			lo = mid + 1
		case s.Items[mid] > item:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// compareItemsets orders itemsets by ascending size, then
// lexicographically by items: a total order over distinct itemsets.
func compareItemsets(a, b Itemset) int {
	if len(a.Items) != len(b.Items) {
		return cmp.Compare(len(a.Items), len(b.Items))
	}
	return slices.Compare(a.Items, b.Items)
}
