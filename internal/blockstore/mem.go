package blockstore

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Mem is the in-memory store: a map of immutable byte objects. It is
// the substrate for tests, the fake remote, and fully in-memory
// tables; contents die with the process.
type Mem struct {
	label string
	mu    sync.RWMutex
	objs  map[string][]byte
}

var _ Store = (*Mem)(nil)

// memSeq makes every Mem label unique: two Mem stores never share
// cached blocks even when both serve an object of the same name.
var memSeq atomic.Uint64

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		label: fmt.Sprintf("mem:%d", memSeq.Add(1)),
		objs:  make(map[string][]byte),
	}
}

func (s *Mem) Label() string { return s.label }

func (s *Mem) ReadRange(name string, off, n int64) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.objs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("blockstore: %s: %w", name, os.ErrNotExist)
	}
	if n < 0 {
		n = max(int64(len(b))-off, 0)
	}
	if off < 0 || n < 0 || off+n > int64(len(b)) {
		return nil, fmt.Errorf("blockstore: %s: range [%d,+%d) outside object of %d bytes: %w",
			name, off, n, len(b), io.ErrUnexpectedEOF)
	}
	countRead(n)
	// Objects are immutable; returning a subslice is safe and free.
	return b[off : off+n : off+n], nil
}

func (s *Mem) Size(name string) (int64, error) {
	s.mu.RLock()
	b, ok := s.objs[name]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("blockstore: %s: %w", name, os.ErrNotExist)
	}
	return int64(len(b)), nil
}

func (s *Mem) Put(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.objs[name] = cp
	s.mu.Unlock()
	return nil
}

func (s *Mem) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[name]; !ok {
		return fmt.Errorf("blockstore: %s: %w", name, os.ErrNotExist)
	}
	delete(s.objs, name)
	return nil
}

func (s *Mem) List() ([]string, error) {
	s.mu.RLock()
	names := make([]string, 0, len(s.objs))
	for name := range s.objs {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}
