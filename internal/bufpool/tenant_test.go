package bufpool

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// loadAs fetches a block for a tenant and immediately releases the
// handle (the scan-path usage pattern).
func loadAs(t *testing.T, p *Pool, tenant string, f uint64, off uint64, size int) {
	t.Helper()
	h, err := p.GetAs(tenant, Key{File: f, Off: off}, new(obs.ScanCounts), func() ([]byte, error) {
		return payload(size, byte(off)), nil
	})
	if err != nil {
		t.Fatalf("GetAs(%s, off=%d): %v", tenant, off, err)
	}
	h.Release()
}

func TestTenantQuotaEnforced(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	p.SetQuota("small", 300)
	if got := p.Quota("small"); got != 300 {
		t.Fatalf("Quota = %d, want 300", got)
	}
	// Three 100-byte blocks fit exactly; the fourth must evict one of
	// the tenant's own blocks, keeping resident <= quota.
	for off := uint64(0); off < 4; off++ {
		loadAs(t, p, "small", f, off, 100)
		if ts := p.TenantStats("small"); ts.Resident > 300 {
			t.Fatalf("after block %d: resident %d > quota 300", off, ts.Resident)
		}
	}
	ts := p.TenantStats("small")
	if ts.Resident != 300 || ts.Quota != 300 {
		t.Fatalf("TenantStats = %+v, want resident 300 quota 300", ts)
	}
	// The pool is nowhere near capacity: the eviction was quota-driven.
	if st := p.Stats(); st.Evictions == 0 {
		t.Fatal("expected a quota eviction")
	}
}

func TestTenantQuotaDoesNotEvictOtherTenants(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	p.SetQuota("a", 200)
	loadAs(t, p, "b", f, 100, 100)
	loadAs(t, p, "b", f, 101, 100)
	// Tenant a churns through 5 blocks under a 2-block quota.
	for off := uint64(0); off < 5; off++ {
		loadAs(t, p, "a", f, off, 100)
	}
	if ts := p.TenantStats("b"); ts.Resident != 200 {
		t.Fatalf("tenant b resident = %d, want 200 (a's quota evictions must hit a's own blocks)", ts.Resident)
	}
	if ts := p.TenantStats("a"); ts.Resident > 200 {
		t.Fatalf("tenant a resident = %d > quota 200", ts.Resident)
	}
}

func TestCapacityEvictionPrefersHeaviestTenant(t *testing.T) {
	// Capacity 1000; hog loads 800 bytes, light 100. The next insert
	// overflows capacity and must evict from the hog, not the light
	// tenant.
	p := New(1000)
	f := p.RegisterObject("a")
	for off := uint64(0); off < 8; off++ {
		loadAs(t, p, "hog", f, off, 100)
	}
	loadAs(t, p, "light", f, 100, 100)
	loadAs(t, p, "light", f, 101, 100) // 1000 resident: at capacity
	loadAs(t, p, "hog", f, 200, 100)   // overflow
	if ts := p.TenantStats("light"); ts.Resident != 200 {
		t.Fatalf("light tenant resident = %d, want 200 (usage-ranked eviction should charge the hog)", ts.Resident)
	}
	if st := p.Stats(); st.Resident > 1000 {
		t.Fatalf("pool resident %d > capacity", st.Resident)
	}
}

func TestQuotaShrinkEvictsImmediately(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	for off := uint64(0); off < 4; off++ {
		loadAs(t, p, "t", f, off, 100)
	}
	if ts := p.TenantStats("t"); ts.Resident != 400 {
		t.Fatalf("resident = %d, want 400", ts.Resident)
	}
	p.SetQuota("t", 150)
	if ts := p.TenantStats("t"); ts.Resident > 150 {
		t.Fatalf("after shrink: resident %d > quota 150", ts.Resident)
	}
}

func TestPinnedBlocksSurviveQuota(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	p.SetQuota("t", 100)
	h, err := p.GetAs("t", Key{File: f, Off: 0}, new(obs.ScanCounts), func() ([]byte, error) {
		return payload(100, 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Over quota while the first block is pinned: nothing evictable,
	// the tenant temporarily exceeds its quota rather than deadlocking
	// or corrupting the pinned block.
	loadAs(t, p, "t", f, 1, 100)
	if got := h.Bytes()[0]; got != 1 {
		t.Fatal("pinned payload corrupted")
	}
	if st := p.Stats(); st.PinnedBytes != 100 {
		t.Fatalf("PinnedBytes = %d, want 100", st.PinnedBytes)
	}
	h.Release()
	if st := p.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("PinnedBytes after release = %d, want 0", st.PinnedBytes)
	}
	// The next quota enforcement brings the tenant back under.
	loadAs(t, p, "t", f, 2, 100)
	if ts := p.TenantStats("t"); ts.Resident > 100 {
		t.Fatalf("resident %d > quota 100 with nothing pinned", ts.Resident)
	}
}

func TestDropFileUnbooksTenant(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	for off := uint64(0); off < 3; off++ {
		loadAs(t, p, "t", f, off, 100)
	}
	p.DropFile(f)
	if ts := p.TenantStats("t"); ts.Resident != 0 {
		t.Fatalf("after DropFile: tenant resident = %d, want 0", ts.Resident)
	}
	if st := p.Stats(); st.Resident != 0 {
		t.Fatalf("after DropFile: pool resident = %d, want 0", st.Resident)
	}
}

func TestGetDelegatesUnattributed(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	h, _, err := get(p, Key{File: f, Off: 0}, func() ([]byte, error) {
		return payload(64, 7), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	// A tenant hitting the unattributed block is a hit, not a charge.
	var c obs.ScanCounts
	h2, err := p.GetAs("t", Key{File: f, Off: 0}, &c, func() ([]byte, error) {
		return nil, fmt.Errorf("must not reload")
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.PoolHits != 1 {
		t.Fatal("want hit")
	}
	h2.Release()
	if ts := p.TenantStats("t"); ts.Resident != 0 {
		t.Fatalf("hit on another loader's block charged the tenant: %d", ts.Resident)
	}
}

func TestReleaseReenforcesQuota(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	p.SetQuota("t", 100)
	// Pin two blocks at once: the tenant sits at 200 > quota with
	// nothing evictable.
	h1, err := p.GetAs("t", Key{File: f, Off: 0}, new(obs.ScanCounts), func() ([]byte, error) {
		return payload(100, 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.GetAs("t", Key{File: f, Off: 1}, new(obs.ScanCounts), func() ([]byte, error) {
		return payload(100, 2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ts := p.TenantStats("t"); ts.Resident != 200 {
		t.Fatalf("resident = %d, want 200 (both pinned)", ts.Resident)
	}
	// Releasing is the first evictable moment: the quota re-enforces
	// without waiting for another load.
	h1.Release()
	if ts := p.TenantStats("t"); ts.Resident > 100 {
		t.Fatalf("after first release: resident %d > quota 100", ts.Resident)
	}
	h2.Release()
	if ts := p.TenantStats("t"); ts.Resident > 100 {
		t.Fatalf("after final release: resident %d > quota 100", ts.Resident)
	}
	if st := p.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("PinnedBytes = %d, want 0", st.PinnedBytes)
	}
}
