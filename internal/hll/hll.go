// Package hll implements HyperLogLog cardinality sketches
// (Flajolet et al. [25]), the primary source of domain statistics for
// the query optimizer integration (paper §4.6). Sketches are
// register-wise mergeable, which is what lets per-tile statistics be
// aggregated into relation-level statistics.
package hll

import "math"

// Precision is the number of index bits. 2^Precision registers of one
// byte each: p=12 gives 4096 registers (~0.016 relative error) at 4 KiB
// per sketch, comfortably inside the paper's "restrict the maximum
// amount of memory used for query optimization" budget.
const Precision = 12

const m = 1 << Precision

// Sketch is a HyperLogLog cardinality estimator. The zero value is
// not usable; call New.
type Sketch struct {
	registers []uint8
}

// New returns an empty sketch.
func New() *Sketch { return &Sketch{registers: make([]uint8, m)} }

// AddHash inserts a pre-hashed 64-bit item.
func (s *Sketch) AddHash(h uint64) {
	idx := h >> (64 - Precision)
	rest := h<<Precision | 1<<(Precision-1) // guard bit bounds rho
	rho := uint8(1)
	for rest&(1<<63) == 0 {
		rho++
		rest <<= 1
	}
	if rho > s.registers[idx] {
		s.registers[idx] = rho
	}
}

// AddString inserts a string item.
func (s *Sketch) AddString(v string) { s.AddHash(hashString(v)) }

// AddBytes inserts a string item given as bytes: it hashes as the
// string of those bytes does.
func (s *Sketch) AddBytes(v []byte) { s.AddHash(hashString(v)) }

// AddInt64 inserts an integer item.
func (s *Sketch) AddInt64(v int64) { s.AddHash(HashUint64(uint64(v))) }

// Estimate returns the approximate number of distinct items added.
func (s *Sketch) Estimate() float64 {
	sum := 0.0
	zeros := 0
	for _, r := range s.registers {
		sum += 1.0 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/float64(m))
	est := alpha * m * m / sum
	// Small-range correction: linear counting.
	if est <= 2.5*m && zeros > 0 {
		est = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return est
}

// Merge folds other into s (register-wise max). Sketches built from
// the union of two streams and the merge of their sketches are
// identical — the property exploited for tile→table aggregation.
func (s *Sketch) Merge(other *Sketch) {
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
}

// Clone returns an independent copy.
func (s *Sketch) Clone() *Sketch {
	c := New()
	copy(c.registers, s.registers)
	return c
}

// SizeBytes returns the register footprint.
func (s *Sketch) SizeBytes() int { return len(s.registers) }

// Registers exposes the raw register array for serialization (the
// segment footer persists relation statistics). Read-only.
func (s *Sketch) Registers() []uint8 { return s.registers }

// FromRegisters reconstructs a sketch from serialized registers.
// Inputs of the wrong length are truncated or zero-padded to the
// sketch size so corrupt statistics degrade the estimate instead of
// panicking.
func FromRegisters(regs []uint8) *Sketch {
	c := New()
	copy(c.registers, regs)
	return c
}

// hashString is FNV-1a with a SplitMix64 finalizer; HLL needs good
// high-bit diffusion because the register index is the top bits.
func hashString[T string | []byte](v T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime64
	}
	return mix(h)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// HashUint64 hashes an integer payload.
func HashUint64(v uint64) uint64 { return mix(v ^ 0xA24BAED4963EE407) }
