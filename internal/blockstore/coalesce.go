package blockstore

// Range is one byte range of an object, as the coalescer sees it.
type Range struct {
	Off, Len int64
}

// Run is one merged ranged read: it covers Blocks consecutive input
// ranges (and the gap bytes between them).
type Run struct {
	Off, Len int64
	Blocks   int
}

// DefaultCoalesceGap is the gap threshold segment reads coalesce
// within: two block refs whose dead space is under 32 KiB merge into
// one ranged read. On an object store a request costs far more than
// 32 KiB of discarded payload; on local disk the readahead window
// absorbs it.
const DefaultCoalesceGap = 32 << 10

// MaxCoalescedRun bounds one merged read (8 MiB) so coalescing a long
// block sequence never turns into an unbounded buffer.
const MaxCoalescedRun = 8 << 20

// Coalesce merges ranges (which must be sorted by Off and
// non-overlapping) into runs: a range joins the current run when the
// gap to the run's end is at most gap and the merged length stays
// within maxRun. gap < 0 disables merging (every range is its own
// run); maxRun <= 0 selects MaxCoalescedRun.
func Coalesce(ranges []Range, gap, maxRun int64) []Run {
	if len(ranges) == 0 {
		return nil
	}
	if maxRun <= 0 {
		maxRun = MaxCoalescedRun
	}
	runs := make([]Run, 0, len(ranges))
	cur := Run{Off: ranges[0].Off, Len: ranges[0].Len, Blocks: 1}
	for _, r := range ranges[1:] {
		end := cur.Off + cur.Len
		newLen := r.Off + r.Len - cur.Off
		if gap >= 0 && r.Off-end <= gap && newLen <= maxRun {
			cur.Len = newLen
			cur.Blocks++
			continue
		}
		runs = append(runs, cur)
		cur = Run{Off: r.Off, Len: r.Len, Blocks: 1}
	}
	return append(runs, cur)
}
