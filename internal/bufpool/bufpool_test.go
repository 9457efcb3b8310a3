package bufpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func payload(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

// get reads key for no tenant and returns what the read counted.
func get(p *Pool, key Key, load func() ([]byte, error)) (*Handle, obs.ScanCounts, error) {
	var c obs.ScanCounts
	h, err := p.GetAs("", key, &c, load)
	return h, c, err
}

func TestGetHitMiss(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	loads := 0
	read := func() (*Handle, obs.ScanCounts) {
		h, c, err := get(p, Key{File: f, Off: 0}, func() ([]byte, error) {
			loads++
			return payload(100, 0xAB), nil
		})
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		return h, c
	}
	h1, c1 := read()
	if c1.PoolMisses != 1 {
		t.Error("first Get: want miss")
	}
	if len(h1.Bytes()) != 100 || h1.Bytes()[0] != 0xAB {
		t.Error("payload mismatch")
	}
	h2, c2 := read()
	if c2.PoolHits != 1 {
		t.Error("second Get: want hit")
	}
	if loads != 1 {
		t.Errorf("loads = %d, want 1", loads)
	}
	h1.Release()
	h2.Release()
	c1.Add(&c2)
	if c1.PoolHits != 1 || c1.PoolMisses != 1 {
		t.Errorf("counts = %+v, want 1 hit / 1 miss", c1)
	}
	if st := p.Stats(); st.Resident != 100 {
		t.Errorf("resident = %d, want 100", st.Resident)
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	boom := errors.New("boom")
	if _, _, err := get(p, Key{File: f}, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed load must not leave a flight or an entry behind.
	h, c, err := get(p, Key{File: f}, func() ([]byte, error) { return payload(10, 1), nil })
	if err != nil {
		t.Fatalf("retry Get: %v", err)
	}
	if c.PoolMisses != 1 {
		t.Error("retry after failed load: want miss")
	}
	h.Release()
}

func TestEviction(t *testing.T) {
	p := New(1000)
	f := p.RegisterObject("a")
	// Fill with 10 blocks of 200 bytes; capacity holds 5.
	for i := 0; i < 10; i++ {
		h, _, err := get(p, Key{File: f, Off: uint64(i)}, func() ([]byte, error) {
			return payload(200, byte(i)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	st := p.Stats()
	if st.Resident > st.Capacity {
		t.Errorf("resident %d exceeds capacity %d with nothing pinned", st.Resident, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Error("want evictions > 0")
	}
}

func TestPinnedBlocksSurviveEviction(t *testing.T) {
	p := New(1000)
	f := p.RegisterObject("a")
	pinned, _, err := get(p, Key{File: f, Off: 999}, func() ([]byte, error) {
		return payload(400, 0xEE), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		h, _, err := get(p, Key{File: f, Off: uint64(i)}, func() ([]byte, error) {
			return payload(300, byte(i)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// The pinned block must still be resident and intact.
	h, c, err := get(p, Key{File: f, Off: 999}, func() ([]byte, error) {
		t.Error("pinned block was evicted; load re-ran")
		return payload(400, 0xEE), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.PoolHits != 1 {
		t.Error("pinned block: want hit")
	}
	if pinned.Bytes()[0] != 0xEE {
		t.Error("pinned payload corrupted")
	}
	h.Release()
	pinned.Release()
}

func TestSingleflight(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	var loads atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	const goroutines = 16
	counts := make([]obs.ScanCounts, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, c, err := get(p, Key{File: f, Off: 7}, func() ([]byte, error) {
				loads.Add(1)
				<-release // hold the flight open so everyone piles up
				return payload(64, 7), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			counts[i] = c
			h.Release()
		}()
	}
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("loads = %d, want 1 (singleflight)", n)
	}
	var st obs.ScanCounts
	for i := range counts {
		st.Add(&counts[i])
	}
	if st.PoolMisses != 1 {
		t.Errorf("misses = %d, want 1", st.PoolMisses)
	}
	if st.PoolHits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.PoolHits, goroutines-1)
	}
}

func TestConcurrentChurn(t *testing.T) {
	p := New(10_000) // small: forces constant eviction
	f := p.RegisterObject("a")
	var wg sync.WaitGroup
	counts := make([]obs.ScanCounts, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				off := uint64((g*31 + i) % 40)
				h, c, err := get(p, Key{File: f, Off: off}, func() ([]byte, error) {
					return payload(512, byte(off)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				b := h.Bytes()
				if len(b) != 512 || b[0] != byte(off) {
					t.Errorf("block %d: corrupt payload", off)
				}
				h.Release()
				counts[g].Add(&c)
			}
		}(g)
	}
	wg.Wait()
	var st obs.ScanCounts
	for g := range counts {
		st.Add(&counts[g])
	}
	if st.PoolHits+st.PoolMisses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", st.PoolHits+st.PoolMisses, 8*500)
	}
}

func TestDropFile(t *testing.T) {
	p := New(1 << 20)
	f1, f2 := p.RegisterObject("a"), p.RegisterObject("b")
	for _, f := range []uint64{f1, f2} {
		h, _, err := get(p, Key{File: f, Off: 1}, func() ([]byte, error) {
			return payload(100, byte(f)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	p.DropFile(f1)
	if st := p.Stats(); st.Resident != 100 {
		t.Errorf("resident after DropFile = %d, want 100", st.Resident)
	}
	// f1's block is gone (miss), f2's survives (hit).
	h, c, err := get(p, Key{File: f1, Off: 1}, func() ([]byte, error) { return payload(100, 1), nil })
	if err != nil {
		t.Fatal(err)
	}
	if c.PoolMisses != 1 {
		t.Error("dropped block: want miss")
	}
	h.Release()
	h2, c2, err := get(p, Key{File: f2, Off: 1}, func() ([]byte, error) { return payload(100, 2), nil })
	if err != nil {
		t.Fatal(err)
	}
	if c2.PoolHits != 1 {
		t.Error("other file's block: want hit")
	}
	h2.Release()
}

func TestCapacityDefaults(t *testing.T) {
	for _, c := range []int64{0, -5} {
		p := New(c)
		if got := p.Stats().Capacity; got != DefaultCapacity {
			t.Errorf("New(%d).Capacity = %d, want %d", c, got, DefaultCapacity)
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	h, _, _ := get(p, Key{File: f}, func() ([]byte, error) { return payload(4096, 1), nil })
	h.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, _, err := get(p, Key{File: f}, func() ([]byte, error) { return nil, fmt.Errorf("unexpected load") })
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}

// TestUnreadFetchedBlocksEvictLast: a block a scan fetched (Put) and
// has not read yet outlives blocks that were already read — evicting
// it would mean reading it twice — but only for a pool's worth of
// inserts: a block nobody ever reads must not be immortal.
func TestUnreadFetchedBlocksEvictLast(t *testing.T) {
	p := New(400)
	f := p.RegisterObject("a")
	key := func(off uint64) Key { return Key{File: f, Off: off} }
	read := func(lo, hi uint64) {
		for off := lo; off < hi; off++ {
			h, _, err := get(p, key(off), func() ([]byte, error) { return payload(100, byte(off)), nil })
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	// A full pool of read blocks, one block fetched ahead, more reads:
	// each insert evicts a block already read, not the fetched one.
	read(10, 14)
	p.Put("", key(1), payload(100, 1), true)
	read(14, 16)
	if !p.Contains(key(1)) {
		t.Fatal("an unread fetched block was evicted ahead of blocks already read")
	}
	// Nobody reads it: 400 bytes of inserts later it is fair game.
	read(16, 19)
	if p.Contains(key(1)) {
		t.Error("a fetched block nobody read survived more than a pool's worth of inserts")
	}
}

// TestAccessCounts: each kind of access counts into the reader's
// ScanCounts where it happens. A miss counts a miss, a hit a hit; the
// first read of a block a fetch inserted counts a prefetch hit when the
// fetch ran ahead of the scan and nothing when the scan's own claim
// fetched it (the fetch counted the miss); every later read is a hit.
func TestAccessCounts(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	load := func() ([]byte, error) { return payload(10, 1), nil }
	p.Put("", Key{File: f, Off: 1}, payload(10, 1), true)
	p.Put("", Key{File: f, Off: 2}, payload(10, 1), false)
	prefetchHits := obs.StorePrefetchHits.Load()
	for _, tc := range []struct {
		name string
		off  uint64
		want obs.ScanCounts
	}{
		{"cold miss", 0, obs.ScanCounts{PoolMisses: 1}},
		{"warm hit", 0, obs.ScanCounts{PoolHits: 1}},
		{"first read of a window-prefetched block", 1, obs.ScanCounts{StorePrefetchHits: 1}},
		{"second read of a window-prefetched block", 1, obs.ScanCounts{PoolHits: 1}},
		{"first read of a claim-fetched block", 2, obs.ScanCounts{}},
		{"second read of a claim-fetched block", 2, obs.ScanCounts{PoolHits: 1}},
	} {
		h, c, err := get(p, Key{File: f, Off: tc.off}, load)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		if c != tc.want {
			t.Errorf("%s: counted %+v, want %+v", tc.name, c, tc.want)
		}
	}
	if got := obs.StorePrefetchHits.Load() - prefetchHits; got != 1 {
		t.Errorf("process-wide prefetch hits rose by %d, want 1", got)
	}
}

// TestEvictionsCountedWhenTheyHappen: the process-wide eviction series
// rises with every block a pool evicts, for capacity and for a tenant's
// quota alike.
func TestEvictionsCountedWhenTheyHappen(t *testing.T) {
	p := New(1000)
	p.SetQuota("q", 300)
	f := p.RegisterObject("a")
	before := obs.BufpoolEvictions.Load()
	for i := range 20 {
		tenant := ""
		if i%2 == 1 {
			tenant = "q"
		}
		h, err := p.GetAs(tenant, Key{File: f, Off: uint64(i)}, new(obs.ScanCounts), func() ([]byte, error) {
			return payload(200, byte(i)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	ev := p.Stats().Evictions
	if ev == 0 {
		t.Fatal("no eviction: the test exercises nothing")
	}
	if got := obs.BufpoolEvictions.Load() - before; got != ev {
		t.Errorf("bufpool_evictions rose by %d, the pool evicted %d", got, ev)
	}
}
