package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// eachStore runs f against every store implementation, each over a
// fresh namespace.
func eachStore(t *testing.T, f func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("fs", func(t *testing.T) {
		s, err := NewFS(t.TempDir())
		if err != nil {
			t.Fatalf("NewFS: %v", err)
		}
		defer s.Close()
		f(t, s)
	})
	t.Run("mem", func(t *testing.T) {
		f(t, NewMem())
	})
	t.Run("fakes3", func(t *testing.T) {
		s := NewFakeS3(nil, FakeS3Config{})
		defer s.Close()
		f(t, s)
	})
}

func TestStoreContract(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		data := []byte("hello, block store world")
		if err := s.Put("obj", data); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// Read-after-commit: readable the moment Put returns.
		if n, err := s.Size("obj"); err != nil || n != int64(len(data)) {
			t.Fatalf("Size = %d, %v; want %d", n, err, len(data))
		}
		got, err := s.ReadRange("obj", 7, 5)
		if err != nil || string(got) != "block" {
			t.Fatalf("ReadRange = %q, %v; want \"block\"", got, err)
		}
		// Put over an existing name replaces the whole object.
		if err := s.Put("obj", []byte("v2")); err != nil {
			t.Fatalf("re-Put: %v", err)
		}
		if b, err := ReadAll(s, "obj"); err != nil || string(b) != "v2" {
			t.Fatalf("ReadAll after re-Put = %q, %v", b, err)
		}
		// List is sorted and complete.
		s.Put("aaa", []byte("x"))
		names, err := s.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(names) != 2 || names[0] != "aaa" || names[1] != "obj" {
			t.Fatalf("List = %v, want [aaa obj]", names)
		}
		// Delete removes; a second delete errors.
		if err := s.Delete("aaa"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if err := s.Delete("aaa"); err == nil {
			t.Fatal("Delete of missing object succeeded")
		}
	})
}

func TestStoreErrorTaxonomy(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		s.Put("obj", []byte("0123456789"))

		// Missing objects wrap fs.ErrNotExist.
		if _, err := s.ReadRange("nope", 0, 1); !IsNotExist(err) {
			t.Errorf("missing ReadRange error = %v, want fs.ErrNotExist", err)
		}
		if _, err := s.Size("nope"); !IsNotExist(err) {
			t.Errorf("missing Size error = %v, want fs.ErrNotExist", err)
		}

		// A range past the end is a short read wrapping
		// io.ErrUnexpectedEOF, naming the object and range.
		_, err := s.ReadRange("obj", 8, 5)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("short read error = %v, want io.ErrUnexpectedEOF", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "obj") || !strings.Contains(msg, "[8,+5)") {
			t.Errorf("short read error %q lacks object name or range", msg)
		}
	})
}

func TestStoreLabelsDistinct(t *testing.T) {
	a, b := NewMem(), NewMem()
	if a.Label() == b.Label() {
		t.Fatalf("two Mem stores share label %q", a.Label())
	}
	fsDir := t.TempDir()
	f1, _ := NewFS(fsDir)
	f2, _ := NewFS(fsDir)
	defer f1.Close()
	defer f2.Close()
	if f1.Label() != f2.Label() {
		t.Fatalf("same directory, different labels: %q vs %q", f1.Label(), f2.Label())
	}
	s3 := NewFakeS3(NewMem(), FakeS3Config{})
	if !strings.HasPrefix(s3.Label(), "fakes3(") {
		t.Fatalf("fake label = %q", s3.Label())
	}
}

func TestFSPutAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("obj", []byte("previous generation"))

	// A crash at the rename leaves the previous object intact and a
	// .tmp temporary behind — never a partial object.
	Rename = func(oldpath, newpath string) error {
		return fmt.Errorf("injected crash at rename")
	}
	err = s.Put("obj", []byte("next generation"))
	Rename = os.Rename
	if err == nil {
		t.Fatal("Put succeeded despite failing rename")
	}
	b, err := ReadAll(s, "obj")
	if err != nil || string(b) != "previous generation" {
		t.Fatalf("object after failed Put = %q, %v", b, err)
	}
}

func TestFSRejectsBadNames(t *testing.T) {
	s, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if err := s.Put(name, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded, want error", name)
		}
	}
}

func TestFSListSkipsDirectories(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("obj", []byte("x"))
	os.Mkdir(filepath.Join(dir, "subdir"), 0o755)
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "obj" {
		t.Fatalf("List = %v, %v; want [obj]", names, err)
	}
}

func TestMemReadRangeIsImmutableView(t *testing.T) {
	s := NewMem()
	s.Put("obj", []byte("abcdef"))
	b, err := s.ReadRange("obj", 1, 3)
	if err != nil || string(b) != "bcd" {
		t.Fatalf("ReadRange = %q, %v", b, err)
	}
	// The view is capacity-clipped: appending cannot clobber the rest
	// of the stored object.
	b = append(b, 'X')
	if full, _ := ReadAll(s, "obj"); !bytes.Equal(full, []byte("abcdef")) {
		t.Fatalf("stored object mutated to %q", full)
	}
}

func TestCoalesce(t *testing.T) {
	r := func(off, n int64) Range { return Range{Off: off, Len: n} }
	cases := []struct {
		name   string
		in     []Range
		gap    int64
		maxRun int64
		want   []Run
	}{
		{"empty", nil, 0, 0, nil},
		{"single", []Range{r(10, 5)}, 32, 0, []Run{{10, 5, 1}}},
		{"adjacent merge", []Range{r(0, 10), r(10, 10)}, 0, 0, []Run{{0, 20, 2}}},
		{"gap within threshold", []Range{r(0, 10), r(30, 10)}, 20, 0, []Run{{0, 40, 2}}},
		{"gap beyond threshold", []Range{r(0, 10), r(31, 10)}, 20, 0, []Run{{0, 10, 1}, {31, 10, 1}}},
		{"negative gap disables", []Range{r(0, 10), r(10, 10)}, -1, 0, []Run{{0, 10, 1}, {10, 10, 1}}},
		{"max run splits", []Range{r(0, 60), r(60, 60), r(120, 60)}, 0, 130, []Run{{0, 120, 2}, {120, 60, 1}}},
		{"three-way chain", []Range{r(0, 10), r(15, 10), r(30, 10)}, 5, 0, []Run{{0, 40, 3}}},
	}
	for _, tc := range cases {
		got := Coalesce(tc.in, tc.gap, tc.maxRun)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d runs, want %d (%+v)", tc.name, len(got), len(tc.want), got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: run %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestReadRangeRetryTransient(t *testing.T) {
	s := NewFakeS3(nil, FakeS3Config{})
	s.Put("obj", []byte("0123456789"))

	// Two injected transient failures, then success: the retry loop
	// absorbs them and reports the retries taken.
	s.FailNextReads(2)
	b, retries, err := ReadRangeRetry(s, "obj", 2, 4)
	if err != nil || string(b) != "2345" {
		t.Fatalf("ReadRangeRetry = %q, %v", b, err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	if s.InjectedFailures() != 2 {
		t.Fatalf("injected = %d, want 2", s.InjectedFailures())
	}

	// More failures than attempts: after the default limit of three
	// retries the final error is transient and carries the object name.
	s.FailNextReads(10)
	_, retries, err = ReadRangeRetry(s, "obj", 0, 1)
	if !IsTransient(err) {
		t.Fatalf("exhausted retry error = %v, want transient", err)
	}
	if retries != 3 {
		t.Fatalf("retries = %d, want 3 (the default limit)", retries)
	}
	if !strings.Contains(err.Error(), "obj") {
		t.Errorf("error %q lacks object name", err)
	}
	s.FailNextReads(-10) // drain leftovers for any following test
}

func TestReadRangeRetryPermanentNotRetried(t *testing.T) {
	s := NewMem()
	s.Put("obj", []byte("xy"))
	_, retries, err := ReadRangeRetry(s, "missing", 0, 1)
	if !IsNotExist(err) || retries != 0 {
		t.Fatalf("ReadRangeRetry(missing) = retries %d, err %v; want 0, not-exist", retries, err)
	}
	var pathErr *fs.PathError
	_ = pathErr
}

func TestFakeS3FailEveryN(t *testing.T) {
	s := NewFakeS3(nil, FakeS3Config{FailEveryN: 3})
	s.Put("obj", []byte("abc"))
	failures := 0
	for i := 0; i < 9; i++ {
		if _, err := s.ReadRange("obj", 0, 1); err != nil {
			if !IsTransient(err) {
				t.Fatalf("injected error not transient: %v", err)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("%d injected failures over 9 reads, want 3", failures)
	}
}

func TestFakeS3Counters(t *testing.T) {
	s := NewFakeS3(nil, FakeS3Config{})
	s.Put("obj", []byte("0123456789"))
	s.ReadRange("obj", 0, 4)
	s.ReadRange("obj", 4, 6)
	s.Size("obj")
	if got := s.RangeReadCount(); got != 2 {
		t.Errorf("RangeReadCount = %d, want 2", got)
	}
	if got := s.BytesRead(); got != 10 {
		t.Errorf("BytesRead = %d, want 10", got)
	}
	if got := s.Requests(); got != 4 {
		t.Errorf("Requests = %d, want 4 (put + 2 reads + size)", got)
	}
}
