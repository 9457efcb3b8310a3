package blockstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FS is the local-filesystem store: objects are files directly under
// one directory — exactly the layout table directories have always
// used, so FS over an existing directory reads it unchanged. Read
// handles are cached per object (segments are read many times over
// their life) and dropped on Put/Delete.
type FS struct {
	dir   string
	label string

	mu     sync.Mutex
	files  map[string]*os.File
	closed bool
}

var _ Store = (*FS)(nil)

// NewFS opens (creating if needed) the directory as a store.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	label := dir
	if abs, err := filepath.Abs(dir); err == nil {
		label = abs
	}
	return &FS{dir: dir, label: "fs:" + label, files: make(map[string]*os.File)}, nil
}

func (s *FS) Label() string { return s.label }

// validName rejects names that would escape the store's flat
// namespace (path separators, dot traversals, empty names).
func validName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("blockstore: invalid object name %q", name)
	}
	return nil
}

// handle returns the cached read handle for name, opening it on first
// use. The caller must not close it.
func (s *FS) handle(name string) (*os.File, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("blockstore: %s: store is closed", name)
	}
	if f, ok := s.files[name]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	s.files[name] = f
	return f, nil
}

// dropHandle closes and forgets name's cached handle (the object was
// replaced or deleted).
func (s *FS) dropHandle(name string) {
	s.mu.Lock()
	if f, ok := s.files[name]; ok {
		delete(s.files, name)
		f.Close()
	}
	s.mu.Unlock()
}

func (s *FS) ReadRange(name string, off, n int64) ([]byte, error) {
	f, err := s.handle(name)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		fi, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("blockstore: %s: %w", name, err)
		}
		if n = fi.Size() - off; n < 0 {
			return nil, fmt.Errorf("blockstore: %s: offset %d past the end of %d bytes: %w",
				name, off, fi.Size(), io.ErrUnexpectedEOF)
		}
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("blockstore: %s: range [%d,+%d): %w", name, off, n, err)
	}
	countRead(n)
	return buf, nil
}

func (s *FS) Size(name string) (int64, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	fi, err := os.Stat(filepath.Join(s.dir, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Put writes data to a temporary sibling, fsyncs, and renames it into
// place — the atomic-publish protocol segment files and manifests have
// always used, now enforced for every object. The directory itself is
// synced (best effort) so the rename survives a crash.
func (s *FS) Put(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	s.syncDir()
	s.dropHandle(name)
	return nil
}

// syncDir makes a rename durable (best effort — some platforms cannot
// fsync directories).
func (s *FS) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func (s *FS) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	s.dropHandle(name)
	return os.Remove(filepath.Join(s.dir, name))
}

func (s *FS) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil // ReadDir sorts
}

// Close releases every cached read handle. Reads after Close fail.
func (s *FS) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, f := range s.files {
		if err := f.Close(); first == nil {
			first = err
		}
		delete(s.files, name)
	}
	s.closed = true
	return first
}
