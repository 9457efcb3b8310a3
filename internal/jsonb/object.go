package jsonb

import "encoding/binary"

// Objects from encoded members: the segment writer splits a document's
// top-level members between blocks, and readers put them back. Both
// work on members in encoded form — a key and its value's JSONB bytes —
// so no value is decoded or re-encoded. A container's header follows
// from its member count and slot bytes alone (appendContainerHeader),
// so the object AppendObject builds from all of an encoded object's
// members equals that object byte for byte.

// Member is one object member in encoded form: its key and its value's
// JSONB encoding.
type Member struct {
	Key, Value []byte
}

// EachMember calls fn with each member of object d in key order, key
// and value aliasing d's buffer, and reports whether d is an object
// whose members all parse (fn may have seen some members of one that
// does not). Member i's value ends at offset i and its key follows, so
// no value is sized.
func (d Doc) EachMember(fn func(key, value []byte)) bool {
	c, ok := d.container()
	if !ok || d.buf[0]>>4 != tagObject {
		return false
	}
	start := c.slotBase
	for i := 0; i < c.n; i++ {
		key, next := d.keyBytesAt(c, i)
		if next < 0 {
			return false
		}
		end := c.slotBase + d.offset(c, i)
		if end < start {
			return false
		}
		fn(key, d.buf[start:end:end])
		start = next
	}
	return true
}

// KeySize is the bytes an object takes to store key: its length
// prefix and its bytes.
func KeySize(key []byte) int { return uvarintLen(uint64(len(key))) + len(key) }

// AppendObject appends the encoding of the object holding members to
// dst. The members must be sorted by key with no key repeated, as an
// encoded object's are; values are copied verbatim.
func AppendObject(dst []byte, members []Member) []byte {
	slots := memberSlots(members)
	dst = appendContainerHeader(dst, tagObject, len(members), slots)
	ow := widthForCode[codeForWidth(uint64(slots))]
	off := 0
	for _, m := range members {
		off += len(m.Value) // offset = end of payload i
		dst = appendUint(dst, uint64(off), ow)
		off += KeySize(m.Key)
	}
	for _, m := range members {
		dst = append(dst, m.Value...)
		dst = binary.AppendUvarint(dst, uint64(len(m.Key)))
		dst = append(dst, m.Key...)
	}
	return dst
}

// memberSlots is the slot bytes of an object of members: each value
// then its length-prefixed key.
func memberSlots(members []Member) int {
	slots := 0
	for _, m := range members {
		slots += len(m.Value) + KeySize(m.Key)
	}
	return slots
}
