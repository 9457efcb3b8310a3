package bufpool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// decodedForm stands in for a column: it retains `size` bytes.
type decodedForm struct{ size int64 }

func getDecoded(t *testing.T, p *Pool, tenant string, key Key, raw int, size int64, decodes *atomic.Int64, c *obs.ScanCounts) *decodedForm {
	t.Helper()
	h, err := p.GetAs(tenant, key, c, func() ([]byte, error) { return payload(raw, 1), nil })
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	v, err := h.Decoded(func(b []byte) (any, int64, error) {
		if len(b) != raw {
			t.Errorf("decode saw %d payload bytes, want %d", len(b), raw)
		}
		decodes.Add(1)
		return &decodedForm{size: size}, size, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v.(*decodedForm)
}

func TestDecodedOncePerResidency(t *testing.T) {
	p := New(1000)
	f := p.RegisterObject("a")
	var decodes atomic.Int64
	key := Key{File: f, Off: 0}

	var c obs.ScanCounts
	first := getDecoded(t, p, "", key, 100, 140, &decodes, &c)
	if got := p.Stats().Resident; got != 140 {
		t.Errorf("resident after decode = %d, want the decoded form's 140 (payload replaced)", got)
	}
	if again := getDecoded(t, p, "", key, 100, 140, &decodes, &c); again != first {
		t.Error("second access returned a different decoded value")
	}
	if decodes.Load() != 1 {
		t.Errorf("decodes = %d, want 1", decodes.Load())
	}
	h, c3, _ := get(p, key, nil)
	if h.Bytes() != nil {
		t.Error("payload still held beside the decoded form")
	}
	h.Release()
	c.Add(&c3)
	if st := p.Stats(); c.PoolHits != 2 || c.PoolMisses != 1 || st.PinnedBytes != 0 {
		t.Errorf("counts = %+v, stats = %+v, want 2 hits / 1 miss, nothing pinned", c, st)
	}

	// The decoded form dies with the entry: DropFile, then a new load
	// decodes again and books the ledgers from scratch.
	p.DropFile(f)
	if got := p.Stats().Resident; got != 0 {
		t.Errorf("resident after DropFile = %d, want 0", got)
	}
	if again := getDecoded(t, p, "", key, 100, 140, &decodes, &c); again == first {
		t.Error("dropped file's decoded value still reachable from the pool")
	}
	if decodes.Load() != 2 {
		t.Errorf("decodes after drop = %d, want 2", decodes.Load())
	}
}

func TestDecodedChargeIsEnforced(t *testing.T) {
	// Three 100-byte payloads fit in 350; once each decodes to 150
	// bytes only two do, and the tenant ledger follows the same sizes.
	p := New(350)
	f := p.RegisterObject("a")
	var decodes atomic.Int64
	for i := 0; i < 3; i++ {
		getDecoded(t, p, "a", Key{File: f, Off: uint64(i)}, 100, 150, &decodes, new(obs.ScanCounts))
		if st := p.Stats(); st.Resident > st.Capacity {
			t.Errorf("after block %d: resident %d over capacity %d", i, st.Resident, st.Capacity)
		}
	}
	st := p.Stats()
	if st.Resident != 300 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 300 resident after 1 eviction", st)
	}
	if ts := p.TenantStats("a"); ts.Resident != 300 {
		t.Errorf("tenant resident = %d, want 300", ts.Resident)
	}
	// A quota smaller than one decoded block: every access still gets
	// its value, nothing is retained past the release.
	p.SetQuota("a", 120)
	for i := 0; i < 3; i++ {
		getDecoded(t, p, "a", Key{File: f, Off: uint64(10 + i)}, 100, 150, &decodes, new(obs.ScanCounts))
	}
	if ts := p.TenantStats("a"); ts.Resident > 120 {
		t.Errorf("tenant resident = %d over its quota of 120", ts.Resident)
	}
}

func TestDecodedErrorNotCached(t *testing.T) {
	p := New(1000)
	key := Key{File: p.RegisterObject("a")}
	h, _, _ := get(p, key, func() ([]byte, error) { return payload(10, 1), nil })
	defer h.Release()
	boom := errors.New("boom")
	if _, err := h.Decoded(func([]byte) (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(h.Bytes()) != 10 || p.Stats().Resident != 10 {
		t.Error("a failed decode changed the entry")
	}
	v, err := h.Decoded(func([]byte) (any, int64, error) { return "ok", 2, nil })
	if err != nil || v != "ok" {
		t.Errorf("retry = %v, %v", v, err)
	}
}

func TestDecodedConcurrentFirstAccess(t *testing.T) {
	p := New(1 << 20)
	f := p.RegisterObject("a")
	var decodes atomic.Int64
	var wg sync.WaitGroup
	vals := make([]*decodedForm, 16)
	for g := range vals {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g] = getDecoded(t, p, "", Key{File: f, Off: 7}, 64, 64, &decodes, new(obs.ScanCounts))
		}(g)
	}
	wg.Wait()
	for _, v := range vals {
		if v != vals[0] {
			t.Fatal("concurrent first accesses saw different decoded values")
		}
	}
	if decodes.Load() != 1 {
		t.Errorf("decodes = %d, want 1", decodes.Load())
	}
	if st := p.Stats(); st.PinnedBytes != 0 || st.Resident != 64 {
		t.Errorf("stats = %+v", st)
	}
}
