package vec

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The recycler keeps the typed arrays that Bufs grow into
// ([]int64, []float64, []uint64, []uint32, []int32, []byte) between
// the operator runs that use them: an operator's state dies when its
// run returns, so the next run draws the same arrays instead of
// allocating them again. Arrays are grouped by power-of-two capacity,
// one sync.Pool per class, and the pool holds the array's first
// element: a pointer, which an interface boxes without allocating.
// Boxed documents ([]expr.Value) are never recycled, nor is any other
// element type.
type arrayPool[T any] [48]sync.Pool

var (
	int64Pool   arrayPool[int64]
	float64Pool arrayPool[float64]
	uint64Pool  arrayPool[uint64]
	uint32Pool  arrayPool[uint32]
	int32Pool   arrayPool[int32]
	bytePool    arrayPool[byte]
)

// poolOf returns the recycler of T's arrays, nil when T is not kept.
func poolOf[T any]() *arrayPool[T] {
	var p any
	switch any((*T)(nil)).(type) {
	case *int64:
		p = &int64Pool
	case *float64:
		p = &float64Pool
	case *uint64:
		p = &uint64Pool
	case *uint32:
		p = &uint32Pool
	case *int32:
		p = &int32Pool
	case *byte:
		p = &bytePool
	default:
		return nil
	}
	return p.(*arrayPool[T])
}

// alloc returns an empty slice with room for at least n > 0 elements,
// recycled when its class holds one. A recycled array's contents are
// unspecified.
func alloc[T any](n int) []T {
	c := bits.Len(uint(n - 1)) // the least class with 1<<c >= n
	p := poolOf[T]()
	if p == nil || c >= len(p) {
		return make([]T, 0, n)
	}
	if x := p[c].Get(); x != nil {
		return unsafe.Slice(x.(*T), 1<<c)[:0]
	}
	return make([]T, 0, 1<<c)
}

// Recycle hands s's array to the recycler: the caller, and every slice
// that shares the array, must not use it again. Arrays of element types
// the recycler does not keep are left to the garbage collector.
func Recycle[T any](s []T) {
	p := poolOf[T]()
	if p == nil || cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	c := bits.Len(uint(len(s))) - 1 // the greatest class with 1<<c <= cap
	if c >= len(p) {
		return
	}
	if poisonReleased.Load() {
		poison(s)
	}
	p[c].Put(&s[0])
}

// Resize returns buf with length n, its contents unspecified: buf
// itself when it holds n, else a recycled array, buf's going back to
// the recycler.
func Resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	Recycle(buf)
	return alloc[T](n)[:n]
}

// Extend returns s with length n (when n > len(s)), the new elements
// zero; an array it outgrows goes back to the recycler.
func Extend[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	old := len(s)
	s = reserve(s, n-old)[:n]
	clear(s[old:])
	return s
}

// Push appends x to s, growing s through the recycler.
func Push[T any](s []T, x T) []T { return append(reserve(s, 1), x) }

// reserve returns s with room for n more elements, at least doubling
// its capacity when it grows; the array it outgrows goes back to the
// recycler.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := append(alloc[T](len(s)+max(n, cap(s))), s...)
	Recycle(s)
	return grown
}

// poisonReleased, when set, has Recycle fill every array it takes
// with a sentinel (PoisonReleased).
var poisonReleased atomic.Bool

// PoisonReleased has every array handed to the recycler filled with a
// sentinel until restore runs: NaN floats, and 0xA5 in every byte of
// the other types (a negative index, an out-of-range offset, a
// scrambled bitmap). A reader that uses an array after releasing it,
// or a writer that assumes a recycled array starts zeroed, then gets
// answers that differ from the ones it gets without the hook. Tests
// run whole plans under it.
func PoisonReleased() (restore func()) {
	poisonReleased.Store(true)
	return func() { poisonReleased.Store(false) }
}

func poison[T any](s []T) {
	if f, ok := any(s).([]float64); ok {
		for i := range f {
			f[i] = math.NaN()
		}
		return
	}
	size := uintptr(len(s)) * unsafe.Sizeof(s[0])
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), size)
	for i := range b {
		b[i] = 0xA5
	}
}
