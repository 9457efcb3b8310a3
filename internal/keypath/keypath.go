// Package keypath implements key-path collection and the type-paired
// item dictionary that feeds frequent itemset mining (paper §3.1 step
// 1, §3.4, §3.5).
//
// A key path is the chain of object keys and array slots followed from
// the document root to an actual key-value pair. Nesting is encoded
// into the path itself so the extractor never distinguishes nested
// from top-level values. Each itemset item is the *pair* of a key path
// and the primitive JSON type of its value — two occurrences of the
// same path only match when their types match too, which is how the
// extractor picks the most common type and leaves outlier-typed values
// in the binary representation.
package keypath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jsonvalue"
)

// ValueType is the primitive type paired with a key path. Timestamp
// never appears in mined items (dates arrive as strings, §4.9); it is
// a column storage type assigned after extraction.
type ValueType uint8

// The value types. Order is stable: dictionary keys embed the raw value.
const (
	TypeNull ValueType = iota
	TypeBool
	TypeBigInt
	TypeDouble
	TypeString
	TypeTimestamp // derived: string columns detected as date/time (§4.9)
	// TypeObject and TypeArray mark *empty* containers: they carry no
	// key-value pair to extract, but the path exists in the document —
	// headers and statistics must see it, or an access to it would be
	// wrongly answered with NULL (->> of {} is "{}", not NULL).
	TypeObject
	TypeArray
)

func (t ValueType) String() string {
	switch t {
	case TypeNull:
		return "Null"
	case TypeBool:
		return "Bool"
	case TypeBigInt:
		return "BigInt"
	case TypeDouble:
		return "Double"
	case TypeString:
		return "Text"
	case TypeTimestamp:
		return "Timestamp"
	case TypeObject:
		return "Object"
	case TypeArray:
		return "Array"
	default:
		return fmt.Sprintf("ValueType(%d)", uint8(t))
	}
}

// TypeOf maps a leaf value to its paired primitive type.
func TypeOf(v jsonvalue.Value) ValueType {
	switch v.Kind() {
	case jsonvalue.KindBool:
		return TypeBool
	case jsonvalue.KindInt:
		return TypeBigInt
	case jsonvalue.KindFloat:
		return TypeDouble
	case jsonvalue.KindString:
		return TypeString
	default:
		return TypeNull
	}
}

// Segment is one step of a key path: either an object key or an array
// slot index.
type Segment struct {
	Key     string
	Index   int
	IsIndex bool
}

// Path is a parsed key path.
type Path struct {
	Segs []Segment
}

// NewPath builds a path of object keys (the common case).
func NewPath(keys ...string) Path {
	segs := make([]Segment, len(keys))
	for i, k := range keys {
		segs[i] = Segment{Key: k}
	}
	return Path{Segs: segs}
}

// Child extends the path by an object key.
func (p Path) Child(key string) Path {
	segs := make([]Segment, len(p.Segs)+1)
	copy(segs, p.Segs)
	segs[len(p.Segs)] = Segment{Key: key}
	return Path{Segs: segs}
}

// Slot extends the path by an array index.
func (p Path) Slot(i int) Path {
	segs := make([]Segment, len(p.Segs)+1)
	copy(segs, p.Segs)
	segs[len(p.Segs)] = Segment{Index: i, IsIndex: true}
	return Path{Segs: segs}
}

// Encode renders the canonical string form: array slots as "[i]",
// object keys separated from a *preceding key segment* by '.' (no dot
// after an index segment or at the start). '.', '[', ']' and '\'
// inside keys are escaped with '\'; the empty key is encoded as the
// marker "\e". The encoding is injective and ParsePath inverts it.
// This string is the identity used by dictionaries, tile headers,
// bloom filters and statistics.
func (p Path) Encode() string {
	var sb strings.Builder
	prevWasKey := false
	for _, s := range p.Segs {
		if s.IsIndex {
			sb.WriteByte('[')
			sb.WriteString(strconv.Itoa(s.Index))
			sb.WriteByte(']')
			prevWasKey = false
			continue
		}
		if prevWasKey {
			sb.WriteByte('.')
		}
		if s.Key == "" {
			sb.WriteString(`\e`)
		}
		for j := 0; j < len(s.Key); j++ {
			switch c := s.Key[j]; c {
			case '.', '[', '\\', ']':
				sb.WriteByte('\\')
				sb.WriteByte(c)
			default:
				sb.WriteByte(c)
			}
		}
		prevWasKey = true
	}
	return sb.String()
}

// ParsePath inverts Encode.
func ParsePath(s string) (Path, error) {
	var p Path
	i := 0
	prevWasKey := false
	for i < len(s) {
		if s[i] == '[' {
			end := strings.IndexByte(s[i:], ']')
			if end < 0 {
				return Path{}, fmt.Errorf("keypath: unterminated index in %q", s)
			}
			idx, err := strconv.Atoi(s[i+1 : i+end])
			if err != nil {
				return Path{}, fmt.Errorf("keypath: bad index in %q: %v", s, err)
			}
			p.Segs = append(p.Segs, Segment{Index: idx, IsIndex: true})
			i += end + 1
			prevWasKey = false
			continue
		}
		if prevWasKey {
			if s[i] != '.' {
				return Path{}, fmt.Errorf("keypath: missing separator in %q at %d", s, i)
			}
			i++ // consume the separator; a key segment follows
		}
		// Key segment: read until an unescaped '.' or '['.
		var key strings.Builder
		emptyMarker := false
		plainChars := 0
		for i < len(s) && s[i] != '.' && s[i] != '[' {
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return Path{}, fmt.Errorf("keypath: trailing escape in %q", s)
				}
				if s[i+1] == 'e' && key.Len() == 0 && plainChars == 0 {
					emptyMarker = true
				} else {
					key.WriteByte(s[i+1])
					plainChars++
				}
				i += 2
				continue
			}
			if s[i] == ']' {
				return Path{}, fmt.Errorf("keypath: stray ']' in %q", s)
			}
			key.WriteByte(s[i])
			plainChars++
			i++
		}
		if emptyMarker && plainChars > 0 {
			return Path{}, fmt.Errorf("keypath: empty-key marker inside key in %q", s)
		}
		p.Segs = append(p.Segs, Segment{Key: key.String()})
		prevWasKey = true
	}
	return p, nil
}

// Display renders the human-readable form used in reports (no
// escaping; lossy for exotic keys).
func (p Path) Display() string {
	var sb strings.Builder
	for i, s := range p.Segs {
		if s.IsIndex {
			fmt.Fprintf(&sb, "[%d]", s.Index)
			continue
		}
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(s.Key)
	}
	return sb.String()
}

// Prefixes calls fn with each proper prefix of the encoded path p, the
// Encode form of its first n segments, longest first, and stops when fn
// returns false. A prefix ends before an unescaped '.' or '[' and after
// an unescaped ']'; it shares p's bytes.
func Prefixes[S ~string | ~[]byte](p S, fn func(prefix S) bool) {
	var buf [16]int
	ends := buf[:0]
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '\\':
			i++ // the escaped byte is part of a key
		case '.':
			ends = append(ends, i)
		case '[':
			if i > 0 {
				ends = append(ends, i)
			}
		case ']':
			if i+1 < len(p) && p[i+1] != '[' {
				ends = append(ends, i+1)
			}
		}
	}
	for k := len(ends) - 1; k >= 0; k-- {
		if !fn(p[:ends[k]]) {
			return
		}
	}
}

// Lookup follows the path through a document.
func Lookup(doc jsonvalue.Value, p Path) (jsonvalue.Value, bool) {
	cur := doc
	for _, s := range p.Segs {
		if s.IsIndex {
			if cur.Kind() != jsonvalue.KindArray || s.Index < 0 || s.Index >= cur.Len() {
				return jsonvalue.Null(), false
			}
			cur = cur.Elem(s.Index)
			continue
		}
		var ok bool
		cur, ok = cur.Lookup(s.Key)
		if !ok {
			return jsonvalue.Null(), false
		}
	}
	return cur, true
}

// DefaultMaxArraySlots bounds how many leading array elements receive
// key paths during collection. Elements beyond the bound stay in the
// binary representation (§3.5: only leading frequent elements are
// materialized); high-cardinality arrays are handled by side
// relations (Tiles-*).
const DefaultMaxArraySlots = 8

// CollectFunc receives each leaf: its path, paired primitive type,
// and value.
type CollectFunc func(p Path, t ValueType, v jsonvalue.Value)

// Collect walks doc and reports every key-value leaf. Scalar values
// (including null) are leaves; empty containers are reported with
// TypeObject/TypeArray so headers and statistics see the path even
// though nothing is extractable from it. Array elements are visited
// up to maxArraySlots (<=0 selects DefaultMaxArraySlots).
func Collect(doc jsonvalue.Value, maxArraySlots int, fn CollectFunc) {
	if maxArraySlots <= 0 {
		maxArraySlots = DefaultMaxArraySlots
	}
	collect(doc, Path{}, maxArraySlots, fn)
}

func collect(v jsonvalue.Value, p Path, maxSlots int, fn CollectFunc) {
	switch v.Kind() {
	case jsonvalue.KindObject:
		if v.Len() == 0 {
			if len(p.Segs) > 0 {
				fn(p, TypeObject, v)
			}
			return
		}
		for _, m := range v.Members() {
			collect(m.Value, p.Child(m.Key), maxSlots, fn)
		}
	case jsonvalue.KindArray:
		if v.Len() == 0 {
			if len(p.Segs) > 0 {
				fn(p, TypeArray, v)
			}
			return
		}
		n := v.Len()
		if n > maxSlots {
			n = maxSlots
		}
		for i := 0; i < n; i++ {
			collect(v.Elem(i), p.Slot(i), maxSlots, fn)
		}
	default:
		if len(p.Segs) == 0 {
			return // scalar root: no key-value pair to speak of
		}
		fn(p, TypeOf(v), v)
	}
}

// Item is a dictionary entry: the canonical path string paired with a
// primitive type.
type Item struct {
	Path string
	Type ValueType
}

// Dict assigns dense int32 ids to (path, type) items — the database
// the FPGrowth miner runs on. Ids are assigned in first-seen order.
// Entries are keyed by path with a small per-type id array so the
// tape walker can look paths up by []byte without allocating.
type Dict struct {
	byPath map[string]*dictEntry
	items  []Item
}

// dictEntry holds one id per ValueType (-1 = unassigned). ValueType
// has 8 values; TypeTimestamp never appears in mined items but the
// slot costs nothing.
type dictEntry [8]int32

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byPath: map[string]*dictEntry{}}
}

func (d *Dict) entry(path string) *dictEntry {
	e := d.byPath[path]
	if e == nil {
		e = &dictEntry{-1, -1, -1, -1, -1, -1, -1, -1}
		d.byPath[path] = e
	}
	return e
}

// Add returns the id for the item, assigning the next id on first
// sight.
func (d *Dict) Add(path string, t ValueType) int32 {
	e := d.entry(path)
	if id := e[t]; id >= 0 {
		return id
	}
	id := int32(len(d.items))
	e[t] = id
	d.items = append(d.items, Item{Path: path, Type: t})
	return id
}

// AddBytes is Add for a path rendered into a byte buffer: the lookup
// allocates no string, and the path is only copied when the item is
// new.
func (d *Dict) AddBytes(path []byte, t ValueType) int32 {
	if e, ok := d.byPath[string(path)]; ok {
		if id := e[t]; id >= 0 {
			return id
		}
		id := int32(len(d.items))
		e[t] = id
		d.items = append(d.items, Item{Path: string(path), Type: t})
		return id
	}
	p := string(path)
	e := d.entry(p)
	id := int32(len(d.items))
	e[t] = id
	d.items = append(d.items, Item{Path: p, Type: t})
	return id
}

// Get returns the id for the item and whether it exists.
func (d *Dict) Get(path string, t ValueType) (int32, bool) {
	if e, ok := d.byPath[path]; ok && e[t] >= 0 {
		return e[t], true
	}
	return 0, false
}

// Item returns the entry for an id.
func (d *Dict) Item(id int32) Item { return d.items[id] }

// Len returns the number of distinct items.
func (d *Dict) Len() int { return len(d.items) }

// Items returns the id-ordered entries; callers must not mutate.
func (d *Dict) Items() []Item { return d.items }
