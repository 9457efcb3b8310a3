package engine

import "repro/internal/vec"

// keyTable is the open-addressing index shared by the hash join and
// GROUP BY: it maps a key hash to the id of a stored row, whose key
// cells live in typed column buffers owned by the caller and are
// compared column-wise through an eq callback (vec.KeyEq) — no key is
// ever rendered to a string. Linear probing; slots hold id+1, 0 is
// empty; the table stays at most half full.
type keyTable struct {
	slots  []int32
	hashes []uint64 // hash of every stored row
}

// init sizes the table for n rows, recycling the slots it outgrows.
func (t *keyTable) init(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t.slots = vec.Resize(t.slots, size)
	clear(t.slots)
}

// release hands the table's arrays to the recycler.
func (t *keyTable) release() {
	vec.Recycle(t.slots)
	vec.Recycle(t.hashes)
	*t = keyTable{}
}

// lookup finds the stored row with hash h for which eq(i, row) holds.
// It returns the row (-1 when absent) and the slot it occupies or
// would be inserted at.
func (t *keyTable) lookup(h uint64, i int, eq func(i, row int) bool) (row, slot int) {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		r := int(t.slots[s])
		if r == 0 {
			return -1, int(s)
		}
		if t.hashes[r-1] == h && eq(i, r-1) {
			return r - 1, int(s)
		}
	}
}

// add stores a new row with hash h at the free slot a lookup returned
// and returns its id (ids are dense, in insertion order). The caller
// appends the row's key cells to its buffers.
func (t *keyTable) add(slot int, h uint64) int {
	id := len(t.hashes)
	t.hashes = vec.Push(t.hashes, h)
	t.slots[slot] = int32(id + 1)
	if 2*len(t.hashes) > len(t.slots) {
		t.init(2 * len(t.hashes))
		mask := uint64(len(t.slots) - 1)
		for r, rh := range t.hashes {
			s := rh & mask
			for t.slots[s] != 0 {
				s = (s + 1) & mask
			}
			t.slots[s] = int32(r + 1)
		}
	}
	return id
}
