package jsontape

import "repro/internal/jsonvalue"

// Materialize builds the jsonvalue tree for the subtree rooted at
// this node. The result is identical to what jsontext.Parse would
// have produced for the same input: the tree an updated document
// (tile.Tile.Update) and a Tiles-* side document are built from.
func (n Node) Materialize() jsonvalue.Value {
	switch n.Kind() {
	case KNull:
		return jsonvalue.Null()
	case KTrue:
		return jsonvalue.Bool(true)
	case KFalse:
		return jsonvalue.Bool(false)
	case KInt:
		return jsonvalue.Int(n.IntVal())
	case KFloat, KFloatPre:
		return jsonvalue.Float(n.FloatVal())
	case KString, KStringEsc:
		return jsonvalue.String(n.StringVal())
	case KObj:
		members := make([]jsonvalue.Member, 0, n.Count())
		j := n.i + 1
		for k := 0; k < n.Count(); k++ {
			key := Node{n.d, j}
			val := Node{n.d, j + 1}
			members = append(members, jsonvalue.Member{Key: key.StringVal(), Value: val.Materialize()})
			j = n.d.Skip(j + 1)
		}
		return jsonvalue.Object(members...)
	case KArr:
		elems := make([]jsonvalue.Value, 0, n.Count())
		j := n.i + 1
		for k := 0; k < n.Count(); k++ {
			elems = append(elems, Node{n.d, j}.Materialize())
			j = n.d.Skip(j)
		}
		return jsonvalue.Array(elems...)
	}
	return jsonvalue.Null()
}

// Member returns the value of the member with the given key in an
// object node — the last one when the key is repeated, the rule
// jsonvalue.Lookup and the JSONB encoder follow — decoding keys lazily
// (raw bytes are compared directly when the stored key needs no
// decoding).
func (n Node) Member(key string) (Node, bool) {
	if n.Kind() != KObj {
		return Node{}, false
	}
	var found Node
	ok := false
	j := n.i + 1
	for k := 0; k < n.Count(); k++ {
		if (Node{n.d, j}).keyEqual(key) {
			found, ok = Node{n.d, j + 1}, true
		}
		j = n.d.Skip(j + 1)
	}
	return found, ok
}

func (kn Node) keyEqual(key string) bool {
	raw, escaped := kn.RawString()
	if !escaped {
		return bstr(raw) == key // a plain key's raw bytes are its content
	}
	return kn.StringVal() == key
}

// Elem returns the k'th element of an array node, walking from the
// start (O(k) skips).
func (n Node) Elem(k int) (Node, bool) {
	if n.Kind() != KArr || k < 0 || k >= n.Count() {
		return Node{}, false
	}
	j := n.i + 1
	for ; k > 0; k-- {
		j = n.d.Skip(j)
	}
	return Node{n.d, j}, true
}
