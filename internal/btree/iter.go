package btree

import "repro/internal/keys"

// Iter is a forward iterator over the tree's pairs, positioned by Seek
// or First. The iterator walks the leaf chain directly, so iteration
// is O(1) amortized per step. Mutating the tree invalidates iterators.
type Iter struct {
	leaf *Node
	pos  int
}

// First returns an iterator at the smallest key (invalid if empty).
func (t *Tree) First() Iter {
	n := t.root
	for !n.Leaf() {
		n = n.Children[0]
	}
	it := Iter{leaf: n, pos: 0}
	it.skipEmpty()
	return it
}

// Seek returns an iterator at the smallest key >= k (invalid if none).
func (t *Tree) Seek(k keys.Key) Iter {
	leaf := t.FindLeaf(k, nil)
	it := Iter{leaf: leaf, pos: searchKeys(leaf.Keys, k)}
	it.skipEmpty()
	return it
}

// Min returns the smallest pair.
func (t *Tree) Min() (keys.Key, keys.Value, bool) {
	it := t.First()
	if !it.Valid() {
		return 0, 0, false
	}
	k, v := it.Pair()
	return k, v, true
}

// Max returns the largest pair.
func (t *Tree) Max() (keys.Key, keys.Value, bool) {
	n := t.root
	for !n.Leaf() {
		n = n.Children[len(n.Children)-1]
	}
	// The rightmost leaf may be empty only when the tree is empty
	// (relaxed trees remove empty leaves; the root leaf may be empty).
	i := n.LastSlot()
	if i < 0 {
		return 0, 0, false
	}
	return n.Keys[i], n.Vals[i], true
}

// Successor returns the smallest pair with key strictly greater than k.
func (t *Tree) Successor(k keys.Key) (keys.Key, keys.Value, bool) {
	it := t.Seek(k + 1)
	if !it.Valid() {
		return 0, 0, false
	}
	sk, sv := it.Pair()
	return sk, sv, true
}

// Predecessor returns the largest pair with key strictly less than k.
// It descends once and walks at most one leaf boundary... which the
// singly-linked leaf chain cannot do backwards, so it re-descends for
// the boundary case.
func (t *Tree) Predecessor(k keys.Key) (keys.Key, keys.Value, bool) {
	n := t.root
	// Descend tracking the rightmost subtree entirely below k.
	var candidate *Node
	for !n.Leaf() {
		i := childIndex(n, k)
		if i > 0 {
			candidate = n.Children[i-1]
		}
		n = n.Children[i]
	}
	i := searchKeys(n.Keys, k)
	if i > 0 {
		// Slot i-1 holds a key < k, so it cannot be a gap (a gap's
		// anchor to the right would carry the same key, yet every slot
		// from i on is >= k): it is always a real entry.
		return n.Keys[i-1], n.Vals[i-1], true
	}
	if candidate == nil {
		return 0, 0, false
	}
	for !candidate.Leaf() {
		candidate = candidate.Children[len(candidate.Children)-1]
	}
	j := candidate.LastSlot()
	if j < 0 {
		return 0, 0, false
	}
	return candidate.Keys[j], candidate.Vals[j], true
}

// Valid reports whether the iterator is positioned on a pair.
func (it *Iter) Valid() bool { return it.leaf != nil && it.pos < len(it.leaf.Keys) }

// Pair returns the current pair; call only when Valid.
func (it *Iter) Pair() (keys.Key, keys.Value) {
	return it.leaf.Keys[it.pos], it.leaf.Vals[it.pos]
}

// Key returns the current key; call only when Valid.
func (it *Iter) Key() keys.Key { return it.leaf.Keys[it.pos] }

// Value returns the current value; call only when Valid.
func (it *Iter) Value() keys.Value { return it.leaf.Vals[it.pos] }

// Next advances to the following pair, reporting whether the iterator
// is still valid.
func (it *Iter) Next() bool {
	if !it.Valid() {
		return false
	}
	it.pos++
	it.skipEmpty()
	return it.Valid()
}

// skipEmpty normalizes the position to the next occupied slot (a free
// slot may sit at the current position), moving past exhausted or
// empty leaves.
func (it *Iter) skipEmpty() {
	for it.leaf != nil {
		if p := it.leaf.nextOcc(it.pos); p < len(it.leaf.Keys) {
			it.pos = p
			return
		}
		it.leaf = it.leaf.Next
		it.pos = 0
	}
}
