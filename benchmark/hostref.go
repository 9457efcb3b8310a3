package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is a few cores of a shared host.
// For minutes at a time everything that reaches beyond the core's own
// caches runs up to twice as slowly — a probe of random reads over
// 64 MiB reads 3.0–3.2 ms when the host is quiet and 5–6 ms in such a
// spell, while a loop that stays in registers changes by 5 % — and the
// engine's queries slow down in proportion (README.md, "Noise
// handling"). No statistic inside a run removes a spell longer than the
// run, and ten runs in a row catch both states, so the quartiles of a
// wall-clock metric lie a third of its median apart.
//
// The yardstick is that probe: a fixed number of random reads over a
// fixed buffer, code that no change to the engine can touch. Every
// pass continues the random sequence where the last one stopped, so a
// pass never finds the lines of the pass before it in a cache. It is
// read off the clock before every block of timed work, and the block's
// times are divided by hostFactor: they are reported at the speed of
// the reference machine when it is quiet, whatever the host is doing
// now. A change to the engine moves a scaled time exactly as it moves
// the raw one. Raw times stay in every report's timings block, with
// the yardstick's readings beside them.
const (
	yardBytes = 64 << 20 // beyond the core's own caches (2 MiB of L2)
	yardReads = 200_000
	// yardNominalMS is what one yardstick pass takes on the reference
	// machine (README.md) while the host is quiet.
	yardNominalMS = 3.1
)

// Host shares: the part of a phase's time that scales with the
// yardstick, fitted on the reference machine over 48 runs in both
// states of the host (the share at which the run-to-run spread of the
// phase's metrics is smallest). Queries over pool-resident blocks
// follow the yardstick almost one to one, and so does generating the
// corpus; parsing and tile building are less bound by memory; a cold
// operation mostly waits for the injected store latency, which the
// host does not change.
const (
	hostShareQuery  = 0.9
	hostShareIngest = 0.6
	hostShareCold   = 0.2
	hostShareSetup  = 1.0
)

// yardstick holds the probe's buffer. It is mapped outside the Go
// heap: a 64 MiB live object would halve the number of collections the
// engine's own allocation triggers.
type yardstick struct {
	mem      []byte // the mapping buf views
	buf      []uint64
	x        uint64    // state of the random sequence
	readings []float64 // every reading, for the report
	last     float64
	lastAt   time.Time
	sink     uint64
}

// yardReuse is how long a reading stands for the host's state: work
// timed in pieces of a few milliseconds does not pay for a reading per
// piece.
const yardReuse = 50 * time.Millisecond

func newYardstick() (*yardstick, error) {
	b, err := syscall.Mmap(-1, 0, yardBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	y := &yardstick{mem: b, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), yardBytes/8), x: 88172645463325252}
	for i := range y.buf {
		y.buf[i] = uint64(i)
	}
	return y, nil
}

// close unmaps the buffer; the readings stay.
func (y *yardstick) close() error {
	y.buf = nil
	return syscall.Munmap(y.mem)
}

// pass times one pass of the probe, in milliseconds.
func (y *yardstick) pass() float64 {
	t0 := time.Now()
	x, s, n := y.x, uint64(0), uint64(len(y.buf))
	for i := 0; i < yardReads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += y.buf[x%n]
	}
	y.x, y.sink = x, y.sink+s
	return ms(time.Since(t0))
}

// read returns the median of three passes, after an untimed one that
// leaves the core's caches and TLB in the probe's own state whatever
// ran before; 0 without a yardstick (the unit tests), which hostFactor
// reads as "do not scale".
func (y *yardstick) read() float64 {
	if y == nil {
		return 0
	}
	if !y.lastAt.IsZero() && time.Since(y.lastAt) < yardReuse {
		return y.last
	}
	y.pass()
	y.last = median([]float64{y.pass(), y.pass(), y.pass()})
	y.readings = append(y.readings, y.last)
	y.lastAt = time.Now()
	return y.last
}

// typical is the median of the run's readings so far.
func (y *yardstick) typical() float64 {
	if y == nil {
		return 0
	}
	return median(y.readings)
}

// hostFactor is how much longer than on the quiet reference machine
// work takes of which share scales with the yardstick, when the
// yardstick reads yardMS.
func hostFactor(yardMS, share float64) float64 {
	if yardMS <= 0 {
		return 1
	}
	return 1 - share + share*yardMS/yardNominalMS
}
