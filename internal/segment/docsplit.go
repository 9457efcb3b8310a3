package segment

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/jsonb"
)

// Documents split by top-level key. A tile's binary-JSON documents are
// stored as parts: one per top-level key whose values hold at least
// 1/splitFloor of the tile's JSONB bytes, in key order, then the
// residual. Each part's payload is a u32 count, then per document a u32
// length and bytes: for a key's part, the document's value under the
// key (length 0: the document lacks it); for the residual, the
// document's other members as an object (length 0: it has none), or
// the whole document when it is not an object or no member of it was
// split off. An access whose path starts with a key reads only that
// key's part, or the residual; a whole document is reassembled from
// every part (Joiner), byte for byte, because an object's encoding
// follows from its members alone (jsonb.AppendObject).

// splitFloor: a key gets a part of its own when its values hold at
// least 1/splitFloor of the tile's JSONB bytes. Below it, a part's
// length prefixes and block overhead outweigh what a scan saves by
// reading the key alone.
const splitFloor = 100

// docSource is a tile's documents, row by row.
type docSource interface {
	NumRows() int
	RawBytes(i int) []byte
}

// A docRun splits documents [lo, hi) of a tile: its first pass counts
// each top-level key's value and key bytes, its second writes one part
// per split key then the residual's. A tile's part is its runs' joined.
type docRun struct {
	lo, hi int
	stats  map[string]*keyStat
	total  int // the run's JSONB bytes
	parts  [][]byte
}

// count is the run's first pass.
func (r *docRun) count(docs docSource) {
	r.stats = map[string]*keyStat{}
	count := func(key, value []byte) {
		st := r.stats[string(key)]
		if st == nil {
			st = &keyStat{part: -1}
			r.stats[string(key)] = st
		}
		st.vals += len(value)
		st.keys += jsonb.KeySize(key)
	}
	for i := r.lo; i < r.hi; i++ {
		d := docs.RawBytes(i)
		r.total += len(d)
		// A document that is no object (or does not parse as one) is
		// stored whole: its members count for no key.
		jsonb.NewDoc(d).EachMember(count)
	}
}

// splitKeys returns the keys whose values hold at least 1/splitFloor of
// the runs' bytes together, sorted.
func splitKeys(runs []docRun) (keys []string) {
	vals, total := map[string]int{}, 0
	for _, r := range runs {
		total += r.total
		for key, st := range r.stats {
			vals[key] += st.vals
		}
	}
	for key, v := range vals {
		if v*splitFloor >= total {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

// write is the run's second pass. All its payloads share one
// allocation, sized from the first pass: each key's part exactly, the
// residual's to a bound it cannot pass (a residual object is its
// document less the split members, whose values and keys the first
// pass counts, and less some header bytes).
func (r *docRun) write(docs docSource, keys []string) {
	n := r.hi - r.lo
	size := (len(keys)+1)*(4+4*n) + r.total
	buf := make([]byte, 0, size)
	r.parts = make([][]byte, len(keys)+1)
	for p, key := range keys {
		st := r.stats[key]
		if st == nil {
			st = new(keyStat) // no document of the run holds the key
		}
		st.part = p
		r.parts[p], buf = carve(buf, 4+4*n+st.vals, n)
		size -= 4 + 4*n + st.vals + st.keys
	}
	rest := len(keys)
	r.parts[rest], _ = carve(buf, size, n)

	// The first pass saw every key a document yields.
	vals := make([][]byte, len(keys))
	var rm []jsonb.Member
	route := func(key, value []byte) {
		if p := r.stats[string(key)].part; p >= 0 {
			vals[p] = value
		} else {
			rm = append(rm, jsonb.Member{Key: key, Value: value})
		}
	}
	for i := r.lo; i < r.hi; i++ {
		d := docs.RawBytes(i)
		clear(vals)
		rm = rm[:0]
		whole := !jsonb.NewDoc(d).EachMember(route) || len(rm) == jsonb.NewDoc(d).Len()
		for p, v := range vals {
			if whole {
				v = nil // a document that does not parse is stored whole
			}
			r.parts[p] = appendDoc(r.parts[p], v)
		}
		switch {
		case whole:
			r.parts[rest] = appendDoc(r.parts[rest], d)
		case len(rm) == 0:
			r.parts[rest] = appendDoc(r.parts[rest], nil)
		default:
			at := len(r.parts[rest])
			r.parts[rest] = jsonb.AppendObject(append(r.parts[rest], 0, 0, 0, 0), rm)
			binary.LittleEndian.PutUint32(r.parts[rest][at:], uint32(len(r.parts[rest])-at-4))
		}
	}
}

// keyStat is what the first pass of a run learns of one top-level key:
// its values' bytes, the bytes its members' keys take, and its part
// (-1: the residual).
type keyStat struct{ vals, keys, part int }

// carve cuts a part payload of capacity size off the front of buf's
// spare capacity and writes its document count.
func carve(buf []byte, size, n int) (part, rest []byte) {
	part = binary.LittleEndian.AppendUint32(buf[len(buf):len(buf):len(buf)+size], uint32(n))
	return part, buf[:len(buf)+size]
}

// appendDoc appends one length-prefixed document (or value) to a part
// payload.
func appendDoc(dst, d []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d)))
	return append(dst, d...)
}

// A Joiner reassembles whole documents from the parts of a tile's
// documents (Reader.DocPartT), reusing its scratch from call to call.
// Not safe for concurrent use.
type Joiner struct {
	tm         *TileMeta
	keys       [][]byte // tm's split keys
	kv, rm, ms []jsonb.Member
}

// Join appends row i's document of tile tm to dst: dirs holds the
// directory of every part of tm's documents, in part order (the split
// keys', then the residual's). The document fails with ErrCorrupt when
// its parts contradict each other — a key in both a part and the
// residual, or a value beside a residual that is not an object — or its
// residual does not parse.
func (j *Joiner) Join(dst []byte, tm *TileMeta, dirs [][][]byte, i int) ([]byte, error) {
	if j.tm != tm {
		j.tm, j.keys = tm, j.keys[:0]
		for _, dp := range tm.Docs {
			j.keys = append(j.keys, []byte(dp.Key))
		}
	}
	out, ok := j.join(dst, dirs, i)
	if !ok {
		return dst, corruptf("document %d does not reassemble from its parts", i)
	}
	return out, nil
}

// collect gathers the residual's members.
func (j *Joiner) collect(key, value []byte) {
	j.rm = append(j.rm, jsonb.Member{Key: key, Value: value})
}

func (j *Joiner) join(dst []byte, dirs [][][]byte, i int) ([]byte, bool) {
	rest := dirs[len(j.keys)][i]
	j.kv = j.kv[:0]
	for p, k := range j.keys {
		if v := dirs[p][i]; len(v) > 0 {
			j.kv = append(j.kv, jsonb.Member{Key: k, Value: v})
		}
	}
	if len(j.kv) == 0 && len(rest) > 0 {
		return append(dst, rest...), true // stored whole
	}
	j.rm = j.rm[:0]
	if len(rest) > 0 && !jsonb.NewDoc(rest).EachMember(j.collect) {
		return dst, false
	}
	// Both member lists are key-sorted: merge them.
	j.ms = j.ms[:0]
	a, b := j.kv, j.rm
	for len(a) > 0 && len(b) > 0 {
		switch c := bytes.Compare(a[0].Key, b[0].Key); {
		case c < 0:
			j.ms, a = append(j.ms, a[0]), a[1:]
		case c > 0:
			j.ms, b = append(j.ms, b[0]), b[1:]
		default:
			return dst, false
		}
	}
	j.ms = append(append(j.ms, a...), b...)
	return jsonb.AppendObject(dst, j.ms), true
}
