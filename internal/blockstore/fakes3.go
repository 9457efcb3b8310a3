package blockstore

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FakeS3Config shapes the fake remote's behavior.
type FakeS3Config struct {
	// Latency is the fixed per-request round trip added to every
	// operation (the dominant cost of real object stores: ~ tens of
	// milliseconds per GET regardless of size).
	Latency time.Duration
	// ThroughputBps caps transfer speed: each request additionally
	// sleeps payloadBytes/ThroughputBps. 0 = unbounded.
	ThroughputBps int64
	// FailEveryN makes every Nth ReadRange fail with a transient error
	// before touching the inner store (0 = never). Models throttling
	// and connection resets.
	FailEveryN int
}

// FakeS3 is an S3-style remote fake: a wrapper that charges per-request
// latency and throughput, counts requests, and injects transient
// range-read failures. It wraps any inner store (Mem by default; FS to
// fake a remote over a persistent directory), so its data path is real
// and only the cost model is simulated.
type FakeS3 struct {
	inner Store
	cfg   FakeS3Config
	label string

	requests   atomic.Int64 // every operation
	rangeReads atomic.Int64 // ReadRange operations (incl. injected failures)
	bytesRead  atomic.Int64 // payload bytes served by ReadRange
	injected   atomic.Int64 // failures injected
	failNext   atomic.Int64 // pending forced failures (FailNextReads)
	readSeq    atomic.Int64 // ReadRange sequence for FailEveryN
}

var _ Store = (*FakeS3)(nil)

// NewFakeS3 wraps inner (nil selects a fresh Mem) with the fake's cost
// model.
func NewFakeS3(inner Store, cfg FakeS3Config) *FakeS3 {
	if inner == nil {
		inner = NewMem()
	}
	return &FakeS3{inner: inner, cfg: cfg, label: "fakes3(" + inner.Label() + ")"}
}

// Inner returns the wrapped store.
func (s *FakeS3) Inner() Store { return s.inner }

func (s *FakeS3) Label() string { return s.label }

// delay charges one request round trip plus n payload bytes.
func (s *FakeS3) delay(n int64) {
	d := s.cfg.Latency
	if s.cfg.ThroughputBps > 0 {
		d += time.Duration(n * int64(time.Second) / s.cfg.ThroughputBps)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// shouldFail consumes one forced or periodic failure, if due.
func (s *FakeS3) shouldFail() bool {
	for {
		v := s.failNext.Load()
		if v <= 0 {
			break
		}
		if s.failNext.CompareAndSwap(v, v-1) {
			return true
		}
	}
	if n := s.cfg.FailEveryN; n > 0 && s.readSeq.Add(1)%int64(n) == 0 {
		return true
	}
	return false
}

func (s *FakeS3) ReadRange(name string, off, n int64) ([]byte, error) {
	s.requests.Add(1)
	s.rangeReads.Add(1)
	if s.shouldFail() {
		s.injected.Add(1)
		s.delay(0)
		return nil, fmt.Errorf("blockstore: %s: range [%d,+%d): injected failure: %w",
			name, off, n, ErrTransient)
	}
	b, err := s.inner.ReadRange(name, off, n)
	s.delay(int64(len(b)))
	if err == nil {
		s.bytesRead.Add(int64(len(b)))
	}
	return b, err
}

func (s *FakeS3) Size(name string) (int64, error) {
	s.requests.Add(1)
	s.delay(0)
	return s.inner.Size(name)
}

func (s *FakeS3) Put(name string, data []byte) error {
	s.requests.Add(1)
	s.delay(int64(len(data)))
	return s.inner.Put(name, data)
}

func (s *FakeS3) Delete(name string) error {
	s.requests.Add(1)
	s.delay(0)
	return s.inner.Delete(name)
}

func (s *FakeS3) List() ([]string, error) {
	s.requests.Add(1)
	s.delay(0)
	return s.inner.List()
}

// FailNextReads forces the next n ReadRange calls to fail with a
// transient error (robustness and retry tests). Negative n clears any
// pending forced failures.
func (s *FakeS3) FailNextReads(n int) {
	if n < 0 {
		s.failNext.Store(0)
		return
	}
	s.failNext.Add(int64(n))
}

// Requests returns the total request count across all operations.
func (s *FakeS3) Requests() int64 { return s.requests.Load() }

// RangeReadCount returns ReadRange requests issued (failures included).
func (s *FakeS3) RangeReadCount() int64 { return s.rangeReads.Load() }

// BytesRead returns payload bytes served by successful range reads.
func (s *FakeS3) BytesRead() int64 { return s.bytesRead.Load() }

// InjectedFailures returns how many transient failures were injected.
func (s *FakeS3) InjectedFailures() int64 { return s.injected.Load() }

// Close closes the inner store, if closable.
func (s *FakeS3) Close() error { return Close(s.inner) }
