package fpgrowth

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// bruteForce enumerates frequent itemsets by testing every subset of
// observed items up to maxK — the ground truth for small inputs.
func bruteForce(transactions [][]int32, minSupport, maxK int) []Itemset {
	itemSet := map[int32]bool{}
	for _, tx := range transactions {
		for _, it := range tx {
			itemSet[it] = true
		}
	}
	var items []int32
	for it := range itemSet {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	var out []Itemset
	var rec func(start int, cur []int32)
	count := func(set []int32) int {
		n := 0
		for _, tx := range transactions {
			sorted := append([]int32(nil), tx...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if isSubset(set, slices.Compact(sorted)) {
				n++
			}
		}
		return n
	}
	rec = func(start int, cur []int32) {
		if len(cur) > 0 {
			if c := count(cur); c >= minSupport {
				out = append(out, Itemset{Items: append([]int32(nil), cur...), Count: c})
			} else {
				return // supersets cannot be frequent (anti-monotonicity)
			}
		}
		if len(cur) >= maxK {
			return
		}
		for i := start; i < len(items); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	sort.Slice(out, func(i, j int) bool { return compareItemsets(out[i], out[j]) < 0 })
	return out
}

func TestPaperRunningExample(t *testing.T) {
	// Tile #2 of Figure 2: items i=0 c=1 t=2 u_i=3 r=4 g_l=5.
	// Tuples 5,7,8 have all six; tuple 6 lacks g_l. Threshold 60% of
	// 4 tuples = 2.4 → min support 3 (ceil).
	tx := [][]int32{
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 4},
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 4, 5},
	}
	m := Miner{MinSupport: 3}
	sets := m.Mine(tx)
	maximal := Maximal(sets)

	// The paper's two maximal itemsets: ({i,c,t,u_i,r}, 4) and
	// ({i,c,t,u_i,r,g_l}, 3). The 5-set is a subset of the 6-set but
	// with a *higher* count, so both are maximal in the
	// count-annotated sense the paper uses. Our Maximal() keeps only
	// set-maximal itemsets; the 6-item set must be present and its
	// union with everything else must cover all 6 key paths.
	found6 := false
	for _, s := range maximal {
		if len(s.Items) == 6 {
			found6 = true
			if s.Count != 3 {
				t.Errorf("6-itemset count = %d, want 3", s.Count)
			}
		}
	}
	if !found6 {
		t.Fatalf("6-item maximal set missing: %v", maximal)
	}
	// The full 5-set {i,c,t,u_i,r} must be frequent with count 4.
	want5 := []int32{0, 1, 2, 3, 4}
	ok5 := false
	for _, s := range sets {
		if reflect.DeepEqual(s.Items, want5) && s.Count == 4 {
			ok5 = true
		}
	}
	if !ok5 {
		t.Errorf("5-itemset {i,c,t,u_i,r} with count 4 not mined")
	}
}

func TestSingleItem(t *testing.T) {
	m := Miner{MinSupport: 2}
	sets := m.Mine([][]int32{{7}, {7}, {8}})
	if len(sets) != 1 || sets[0].Items[0] != 7 || sets[0].Count != 2 {
		t.Errorf("sets = %+v", sets)
	}
}

func TestEmptyAndBelowSupport(t *testing.T) {
	m := Miner{MinSupport: 2}
	if sets := m.Mine(nil); sets != nil {
		t.Errorf("nil transactions: %v", sets)
	}
	if sets := m.Mine([][]int32{{1}, {2}, {3}}); sets != nil {
		t.Errorf("all below support: %v", sets)
	}
	bad := Miner{MinSupport: 0}
	if sets := bad.Mine([][]int32{{1}}); sets != nil {
		t.Errorf("zero support: %v", sets)
	}
}

func TestDuplicateItemsInTransaction(t *testing.T) {
	m := Miner{MinSupport: 2}
	sets := m.Mine([][]int32{{1, 1, 1}, {1, 1}})
	if len(sets) != 1 || sets[0].Count != 2 {
		t.Errorf("duplicates inflated counts: %+v", sets)
	}
}

func TestAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nItems := 2 + r.Intn(6)
		nTx := 5 + r.Intn(20)
		tx := make([][]int32, nTx)
		for i := range tx {
			n := 1 + r.Intn(nItems)
			for j := 0; j < n; j++ {
				tx[i] = append(tx[i], int32(r.Intn(nItems)))
			}
		}
		minSupport := 1 + r.Intn(nTx/2+1)
		m := Miner{MinSupport: minSupport, Budget: 1 << 20}
		got := m.Mine(tx)
		want := bruteForce(tx, minSupport, nItems)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (minSupport=%d, tx=%v):\ngot  %v\nwant %v",
				trial, minSupport, tx, got, want)
		}
	}
}

func TestBudgetBoundsOutput(t *testing.T) {
	// 12 items all co-occurring: full powerset would be 4095 itemsets.
	tx := make([][]int32, 10)
	for i := range tx {
		for j := int32(0); j < 12; j++ {
			tx[i] = append(tx[i], j)
		}
	}
	m := Miner{MinSupport: 5, Budget: 100}
	sets := m.Mine(tx)
	if len(sets) > 100 {
		t.Fatalf("budget exceeded: %d sets", len(sets))
	}
	if len(sets) == 0 {
		t.Fatal("budget silenced mining entirely")
	}
	// Graceful degradation: small itemsets first — every single item
	// must be present.
	singles := 0
	for _, s := range sets {
		if len(s.Items) == 1 {
			singles++
		}
	}
	if singles != 12 {
		t.Errorf("%d singles, want 12 (small itemsets must survive the budget)", singles)
	}
}

func TestMaxItemsetSize(t *testing.T) {
	tests := []struct{ n, u, want int }{
		{4, 1 << 20, 4}, // unbounded: full powerset fits
		{4, 14, 3},      // C(4,1)+C(4,2)+C(4,3) = 4+6+4 = 14
		{4, 13, 2},      // 13 < 14 but ≥ 10
		{4, 4, 1},       // only singles
		{4, 1, 1},       // k floors at 1
		{100, 100, 1},   // C(100,1)=100 fits exactly
		{100, 5049, 1},  // 100 + 4950 = 5050 > 5049
		{100, 5050, 2},  // exactly C(100,1)+C(100,2)
		{1, 10, 1},
	}
	for _, tt := range tests {
		if got := maxItemsetSize(tt.n, tt.u); got != tt.want {
			t.Errorf("maxItemsetSize(%d, %d) = %d, want %d", tt.n, tt.u, got, tt.want)
		}
	}
}

func TestMaximal(t *testing.T) {
	sets := []Itemset{
		{Items: []int32{1}, Count: 5},
		{Items: []int32{2}, Count: 4},
		{Items: []int32{1, 2}, Count: 4},
		{Items: []int32{3}, Count: 3},
	}
	max := Maximal(sets)
	if len(max) != 2 {
		t.Fatalf("maximal = %v", max)
	}
	if !reflect.DeepEqual(max[0].Items, []int32{1, 2}) {
		t.Errorf("first maximal = %v, want {1,2}", max[0].Items)
	}
	if !reflect.DeepEqual(max[1].Items, []int32{3}) {
		t.Errorf("second maximal = %v, want {3}", max[1].Items)
	}
}

func TestIsSubset(t *testing.T) {
	if !isSubset([]int32{}, []int32{1, 2}) {
		t.Error("empty set not subset")
	}
	if !isSubset([]int32{2}, []int32{1, 2, 3}) {
		t.Error("{2} not subset of {1,2,3}")
	}
	if isSubset([]int32{4}, []int32{1, 2, 3}) {
		t.Error("{4} subset of {1,2,3}")
	}
}

func TestContains(t *testing.T) {
	s := Itemset{Items: []int32{1, 5, 9}}
	for _, it := range []int32{1, 5, 9} {
		if !s.Contains(it) {
			t.Errorf("Contains(%d) = false", it)
		}
	}
	for _, it := range []int32{0, 2, 10} {
		if s.Contains(it) {
			t.Errorf("Contains(%d) = true", it)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tx := make([][]int32, 50)
	for i := range tx {
		n := 1 + r.Intn(8)
		for j := 0; j < n; j++ {
			tx[i] = append(tx[i], int32(r.Intn(10)))
		}
	}
	m := Miner{MinSupport: 5}
	first := m.Mine(tx)
	for i := 0; i < 5; i++ {
		if again := m.Mine(tx); !reflect.DeepEqual(first, again) {
			t.Fatal("non-deterministic mining output")
		}
	}
}

// Property: every mined itemset's reported count matches a direct
// scan, and every mined itemset meets the support threshold.
func TestQuickCountsAreExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nItems := 2 + r.Intn(8)
		tx := make([][]int32, 10+r.Intn(30))
		for i := range tx {
			n := 1 + r.Intn(nItems)
			for j := 0; j < n; j++ {
				tx[i] = append(tx[i], int32(r.Intn(nItems)))
			}
		}
		minSupport := 1 + r.Intn(5)
		m := Miner{MinSupport: minSupport, Budget: 1 << 16}
		for _, s := range m.Mine(tx) {
			actual := 0
			for _, txi := range tx {
				sorted := append([]int32(nil), txi...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				if isSubset(s.Items, slices.Compact(sorted)) {
					actual++
				}
			}
			if actual != s.Count || s.Count < minSupport {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
