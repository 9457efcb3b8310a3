// Package blockstore abstracts segment I/O behind a ranged-read
// object store — the storage half of a storage/compute separation.
// Segments, manifests, and recovery all speak this interface, so the
// same engine runs off a local directory, an in-memory map, or (via
// the latency-injecting fake) an S3-style remote.
//
// The storage contract (DESIGN.md §6.9):
//
//   - Objects are immutable: once Put returns, the bytes under that
//     name never change. The one exception is the manifest, which is
//     republished wholesale under its fixed name; a Put over an
//     existing name atomically replaces the whole object.
//   - Put is atomic and durable: readers see either the previous
//     object (or none) or the complete new one, never a prefix, and a
//     nil error means the object survives a crash.
//   - Read-after-commit visibility: an object is readable by name the
//     moment Put returns. Nothing is promised about objects whose Put
//     never returned — the writer's orphan collection deletes them.
//   - ReadRange(name, off, n) returns exactly n bytes or an error; a
//     range past the object's end is a short read, reported as an
//     error wrapping io.ErrUnexpectedEOF with the name and range.
//   - Missing objects report an error wrapping fs.ErrNotExist.
//   - Transient errors (throttling, connection resets — injected by
//     the fake) wrap ErrTransient; callers retry with backoff
//     (ReadRangeRetry) before treating a failure as real.
package blockstore

import (
	"errors"
	"io"
	"os"
	"time"

	"repro/internal/obs"
)

// Store is a flat namespace of immutable byte objects with ranged
// reads. Implementations must be safe for concurrent use.
type Store interface {
	// Label uniquely identifies the store instance for cache keying:
	// buffer-pool object IDs are derived from Label()+"/"+name, so two
	// stores must never share a label unless they serve identical bytes.
	Label() string
	// ReadRange returns bytes [off, off+n) of the named object. The
	// returned slice must not be mutated by the caller (it may alias
	// store-internal memory).
	ReadRange(name string, off, n int64) ([]byte, error)
	// Size returns the object's length in bytes.
	Size(name string) (int64, error)
	// Put atomically publishes data under name (see the package
	// contract). The store copies or otherwise owns data after return.
	Put(name string, data []byte) error
	// Delete removes the named object.
	Delete(name string) error
	// List returns every object name, sorted.
	List() ([]string, error)
}

// ErrTransient marks a retryable store failure (throttling, connection
// reset). Errors wrapping it are retried by ReadRangeRetry; anything
// else is treated as permanent.
var ErrTransient = errors.New("transient store error")

// IsTransient reports whether err is a retryable store failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsNotExist reports whether err means the object does not exist.
func IsNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// countRead books one issued range read into the global registry.
// The concrete stores (FS, Mem) call it; the fake delegates to an
// inner store, so each request is counted exactly once.
func countRead(n int64) {
	obs.StoreRangeReads.Add(1)
	obs.StoreBytesRead.Add(n)
}

// Rename is the atomic-commit step of FS.Put. Tests inject a failing
// hook here to simulate a crash between writing an object's temporary
// and publishing it — the window orphan collection exists for.
// Production code never touches it.
var Rename = os.Rename

// readAttempts bounds ReadRangeRetry: the initial read plus up
// to three retries, with exponential backoff starting at retryBaseDelay.
const readAttempts = 4

// retryBaseDelay is the first backoff step; it doubles per retry. Kept
// short because the fake's injected failures are instantaneous and
// real transients (throttling) are themselves sub-second.
const retryBaseDelay = time.Millisecond

// ReadRangeRetry is ReadRange with bounded retry-with-backoff on
// transient errors. It returns the bytes, the number of retries taken
// (0 when the first attempt succeeded), and the final error. Every
// retry increments the global store_retries counter.
func ReadRangeRetry(s Store, name string, off, n int64) ([]byte, int, error) {
	delay := retryBaseDelay
	retries := 0
	for {
		b, err := s.ReadRange(name, off, n)
		if err == nil || !IsTransient(err) || retries >= readAttempts-1 {
			return b, retries, err
		}
		retries++
		obs.StoreRetries.Add(1)
		time.Sleep(delay)
		delay *= 2
	}
}

// ReadAll returns the named object's full contents (Size + one ranged
// read, with transient retries).
func ReadAll(s Store, name string) ([]byte, error) {
	size, err := s.Size(name)
	if err != nil {
		return nil, err
	}
	b, _, err := ReadRangeRetry(s, name, 0, size)
	return b, err
}

// Close closes the store if its implementation holds releasable
// resources (FS file handles); stores without a Close are a no-op.
func Close(s Store) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
