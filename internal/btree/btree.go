// Package btree implements the in-memory B+ tree substrate that both the
// PALM batch processor and the serial/lock-based baselines operate on.
//
// Layout follows Section II-A of the paper (Fig. 2): an N-ary index tree
// whose internal nodes hold only separator keys and child pointers, with
// all key-value pairs stored in the leaf level, which is additionally
// chained left-to-right for range scans. The maximum child count of an
// internal node is the tree's order b; internal nodes (except a root)
// hold at least ceil(b/2) children, leaves at least ceil(b/2)-1 entries —
// except in "relaxed" mode used by PALM's batched restructuring, where
// deletions may leave nodes under-full (empty nodes are always removed).
//
// The serial methods on Tree (Insert, Search, Delete) implement the full
// textbook algorithm including borrow/merge rebalancing; they are the
// ground truth against which the batched processors are differentially
// tested.
package btree

import (
	"fmt"

	"repro/internal/keys"
)

// DefaultOrder is the default maximum fanout. The paper's artifact uses
// wide nodes tuned to KNL cache lines; at the default order a gapped
// node is a fixed 63-slot key array (504 B, ~8 cache lines — about one
// 4-line sector pair per half), small enough that the unconditional
// full-width scan stays L1-resident while leaving real gap slack
// between the ~⌈b/2⌉ minimum fill and capacity.
const DefaultOrder = 64

// MinOrder is the smallest supported order: a 3-order tree as in Fig. 2.
const MinOrder = 3

// Node is one B+ tree node. Exported (with read-only accessors) so the
// PALM processor in a sibling package can stage bottom-up modifications;
// user code should treat nodes as opaque. Every node uses the gapped
// slot layout of gapped.go.
type Node struct {
	// Keys holds the node's keys in ascending slot order: a fixed-width
	// array of Cap() slots whose free slots duplicate the entry to
	// their right (or hold SentinelKey), so Keys is always sorted. For
	// a leaf, Keys[i] pairs with Vals[i]. For an internal node, Keys[i]
	// separates Children[i] (< Keys[i]) from Children[i+1] (>= Keys[i]);
	// internal nodes keep their Len() separators as a dense prefix with
	// a sentinel tail.
	Keys []keys.Key
	// Vals holds leaf payloads, one per key slot; nil for internal nodes.
	Vals []keys.Value
	// Children holds child pointers; nil for leaves. Always dense
	// (len == Len()+1).
	Children []*Node
	// Next chains leaves left-to-right; nil for internal nodes and the
	// rightmost leaf.
	Next *Node

	// occ is the presence bitmap over key slots and count the number
	// of occupied slots (gapped.go).
	occ   []uint64
	count int32
}

// Leaf reports whether n is a leaf node.
func (n *Node) Leaf() bool { return n.Children == nil }

// Len returns the number of entries stored in the node (its occupied
// slots).
func (n *Node) Len() int { return int(n.count) }

// Tree is a B+ tree of a fixed order. The zero value is not usable; use
// New. Tree's serial methods are not safe for concurrent use; the PALM
// processor provides safe batched concurrency on top.
type Tree struct {
	root  *Node
	order int // max children of an internal node; max leaf entries = order-1
	size  int // number of key-value pairs
}

// New creates an empty tree of the given order. Orders below MinOrder
// are rejected; order <= 0 selects DefaultOrder.
func New(order int) (*Tree, error) {
	if order <= 0 {
		order = DefaultOrder
	}
	if order < MinOrder {
		return nil, fmt.Errorf("btree: order %d below minimum %d", order, MinOrder)
	}
	return &Tree{root: NewGappedLeaf(order - 1), order: order}, nil
}

// MustNew is New for known-good orders; it panics on error. Intended for
// tests and examples.
func MustNew(order int) *Tree {
	t, err := New(order)
	if err != nil {
		panic(err)
	}
	return t
}

// Order returns the tree's order (maximum internal fanout).
func (t *Tree) Order() int { return t.order }

// Len returns the number of key-value pairs stored.
func (t *Tree) Len() int { return t.size }

// Root exposes the root node for the batched processors and validators.
func (t *Tree) Root() *Node { return t.root }

// SetRoot replaces the root node. Intended for the PALM batch processor's
// Stage 3 (root growth/collapse); user code should not call it.
func (t *Tree) SetRoot(n *Node) { t.root = n }

// AddSize adjusts the recorded pair count by d. Intended for batched
// processors that mutate leaves directly.
func (t *Tree) AddSize(d int) { t.size += d }

// maxLeafEntries is the maximum number of key-value pairs a leaf holds.
func (t *Tree) maxLeafEntries() int { return t.order - 1 }

// minLeafEntries is the textbook minimum fill for a non-root leaf.
func (t *Tree) minLeafEntries() int { return (t.order - 1) / 2 }

// minChildren is the textbook minimum fanout for a non-root internal node.
func (t *Tree) minChildren() int { return (t.order + 1) / 2 }

// searchKeys returns the index of the first key in ks >= k.
func searchKeys(ks []keys.Key, k keys.Key) int {
	// Branchless binary search shared with the batch processors; the
	// stand-in for the artifact's AVX-512 intra-node SIMD search (see
	// DESIGN.md §4.1 and §8).
	return SearchGE(ks, k)
}

// childIndex returns which child of internal node n covers key k.
func childIndex(n *Node, k keys.Key) int {
	// Keys[i] separates children i and i+1 with children[i] < Keys[i].
	// The sentinel tail can push the probe past the last child when
	// k == SentinelKey, so the slot is clamped to the last child.
	i := SearchGT(n.Keys, k)
	if i >= len(n.Children) {
		i = len(n.Children) - 1
	}
	return i
}

// FindLeaf descends from the root to the leaf that covers k, returning
// the leaf and the root-to-leaf path of internal nodes with the child
// indices taken. PALM's Stage 1 records this path so Stage 3 can push
// modifications bottom-up without parent pointers.
func (t *Tree) FindLeaf(k keys.Key, path *Path) *Node {
	n := t.root
	if path != nil {
		path.Reset()
	}
	for !n.Leaf() {
		i := childIndex(n, k)
		if path != nil {
			path.Push(n, i)
		}
		n = n.Children[i]
	}
	return n
}

// Path records the internal nodes visited on a root-to-leaf descent
// together with the child index taken at each. Path values are reusable
// to avoid per-query allocation.
type Path struct {
	Nodes []*Node
	Slots []int
}

// Reset empties the path for reuse.
func (p *Path) Reset() {
	p.Nodes = p.Nodes[:0]
	p.Slots = p.Slots[:0]
}

// Push appends one descent step.
func (p *Path) Push(n *Node, slot int) {
	p.Nodes = append(p.Nodes, n)
	p.Slots = append(p.Slots, slot)
}

// Len returns the number of internal levels recorded.
func (p *Path) Len() int { return len(p.Nodes) }

// Clone returns an independent copy of the path.
func (p *Path) Clone() Path {
	return Path{
		Nodes: append([]*Node(nil), p.Nodes...),
		Slots: append([]int(nil), p.Slots...),
	}
}

// Search returns the value stored for k.
func (t *Tree) Search(k keys.Key) (keys.Value, bool) {
	return LeafFind(t.FindLeaf(k, nil), k)
}

// sepCap is the fixed separator capacity of internal nodes.
func (t *Tree) sepCap() int { return t.order - 1 }

// Insert stores v under k, replacing any existing value (the I(key, v)
// semantics of §II-A). It reports whether a new entry was created.
func (t *Tree) Insert(k keys.Key, v keys.Value) bool {
	var path Path
	leaf := t.FindLeaf(k, &path)
	ed := leaf.InsertGapped(k, v)
	if ed.Full {
		t.splitLeaf(leaf, &path)
		// The split may have grown the tree; re-descend to the
		// now-half-full covering leaf and claim one of its fresh gaps.
		leaf = t.FindLeaf(k, &path)
		ed = leaf.InsertGapped(k, v)
	}
	if ed.Added {
		t.size++
	}
	return ed.Added
}

// splitLeaf splits a full leaf into two half-full leaves with evenly
// spread gaps and pushes the separator into the parent, cascading
// splits upward as needed.
func (t *Tree) splitLeaf(leaf *Node, path *Path) {
	ks, vs := leaf.AppendEntries(nil, nil)
	mid := (len(ks) + 1) / 2
	right := NewGappedLeaf(len(leaf.Keys))
	right.Next = leaf.Next
	PackLeafGapped(right, ks[mid:], vs[mid:])
	PackLeafGapped(leaf, ks[:mid], vs[:mid])
	leaf.Next = right
	t.insertIntoParent(path, path.Len()-1, ks[mid], right)
}

// insertIntoParent inserts separator sep and new right child into the
// parent at path level lvl, splitting ancestors as needed. lvl == -1
// means the split node was the root, which grows a new root.
func (t *Tree) insertIntoParent(path *Path, lvl int, sep keys.Key, right *Node) {
	if lvl < 0 {
		old := t.root
		root := &Node{Children: append(make([]*Node, 0, t.order+1), old, right)}
		SetInternalGapped(root, t.sepCap(), []keys.Key{sep}, root.Children)
		t.root = root
		return
	}
	parent := path.Nodes[lvl]
	parent.internalInsertAt(path.Slots[lvl], sep, right)
	if len(parent.Children) > t.order {
		t.splitInternal(parent, path, lvl)
	}
}

// splitInternal splits an over-full internal node in half,
// repacking both pieces at the fixed separator capacity and pushing the
// middle separator up.
func (t *Tree) splitInternal(n *Node, path *Path, lvl int) {
	cnt := int(n.count)
	mid := cnt / 2
	sep := n.Keys[mid]
	right := &Node{Children: append(make([]*Node, 0, t.order+1), n.Children[mid+1:]...)}
	SetInternalGapped(right, t.sepCap(), n.Keys[mid+1:cnt], right.Children)
	leftSeps := append(make([]keys.Key, 0, mid), n.Keys[:mid]...)
	n.Children = n.Children[:mid+1]
	SetInternalGapped(n, t.sepCap(), leftSeps, n.Children)
	t.insertIntoParent(path, lvl-1, sep, right)
}

// Delete removes k if present (the D(key) semantics), reporting whether
// an entry was removed. Full textbook rebalancing: under-full leaves
// borrow from or merge with a sibling under the same parent, cascading
// upward.
func (t *Tree) Delete(k keys.Key) bool {
	var path Path
	leaf := t.FindLeaf(k, &path)
	ed := leaf.DeleteGapped(k)
	if !ed.Removed {
		return false
	}
	t.size--
	t.rebalanceLeaf(leaf, &path)
	return true
}

// rebalanceLeaf restores the minimum-fill invariant after a leaf
// deletion: borrow a boundary entry through the cheap single-entry
// gapped ops, or merge into a freshly packed sibling.
func (t *Tree) rebalanceLeaf(leaf *Node, path *Path) {
	if path.Len() == 0 || leaf.Len() >= t.minLeafEntries() {
		return
	}
	parent := path.Nodes[path.Len()-1]
	slot := path.Slots[path.Len()-1]

	if slot > 0 {
		left := parent.Children[slot-1]
		if left.Len() > t.minLeafEntries() {
			i := left.LastSlot()
			bk, bv := left.Keys[i], left.Vals[i]
			left.DeleteGapped(bk)
			leaf.InsertGapped(bk, bv)
			parent.Keys[slot-1] = bk
			return
		}
	}
	if slot < len(parent.Children)-1 {
		right := parent.Children[slot+1]
		if right.Len() > t.minLeafEntries() {
			i := right.FirstSlot()
			bk, bv := right.Keys[i], right.Vals[i]
			right.DeleteGapped(bk)
			leaf.InsertGapped(bk, bv)
			// A gapped node's slot 0 always duplicates its minimum.
			parent.Keys[slot] = right.Keys[0]
			return
		}
	}
	if slot > 0 {
		left := parent.Children[slot-1]
		ks, vs := left.AppendEntries(nil, nil)
		ks, vs = leaf.AppendEntries(ks, vs)
		PackLeafGapped(left, ks, vs)
		left.Next = leaf.Next
		t.removeChild(parent, slot, path, path.Len()-1)
	} else if slot+1 < len(parent.Children) {
		right := parent.Children[slot+1]
		ks, vs := leaf.AppendEntries(nil, nil)
		ks, vs = right.AppendEntries(ks, vs)
		PackLeafGapped(leaf, ks, vs)
		leaf.Next = right.Next
		t.removeChild(parent, slot+1, path, path.Len()-1)
	} else {
		// No sibling at all: a relaxed single-child parent
		// (relaxed.go).
		t.dropLonelyLeaf(leaf, path)
	}
}

// removeChild removes parent.Children[slot] plus its left
// separator and rebalances the parent at path level lvl.
func (t *Tree) removeChild(parent *Node, slot int, path *Path, lvl int) {
	parent.internalRemoveAt(slot)
	t.rebalanceInternal(parent, path, lvl)
}

// rebalanceInternal restores the minimum-fanout invariant for an
// internal node at path level lvl.
func (t *Tree) rebalanceInternal(n *Node, path *Path, lvl int) {
	if lvl == 0 {
		if len(n.Children) == 1 {
			t.root = n.Children[0]
		}
		return
	}
	if len(n.Children) >= t.minChildren() {
		return
	}
	parent := path.Nodes[lvl-1]
	slot := path.Slots[lvl-1]

	if slot > 0 {
		left := parent.Children[slot-1]
		if len(left.Children) > t.minChildren() {
			// Rotate rightwards through the parent separator.
			// An underfull node has cnt+1 <= minChildren-1 <= sepCap
			// separators after the rotation, so the fixed width fits.
			cnt := int(n.count)
			copy(n.Keys[1:cnt+1], n.Keys[:cnt])
			n.Keys[0] = parent.Keys[slot-1]
			n.setOcc(cnt)
			n.count++
			n.Children = append(n.Children, nil)
			copy(n.Children[1:], n.Children)
			lcnt := int(left.count)
			n.Children[0] = left.Children[len(left.Children)-1]
			parent.Keys[slot-1] = left.Keys[lcnt-1]
			left.Keys[lcnt-1] = SentinelKey
			left.clearOcc(lcnt - 1)
			left.count--
			left.Children = left.Children[:len(left.Children)-1]
			return
		}
	}
	if slot < len(parent.Children)-1 {
		right := parent.Children[slot+1]
		if len(right.Children) > t.minChildren() {
			// Rotate leftwards through the parent separator.
			cnt := int(n.count)
			n.Keys[cnt] = parent.Keys[slot]
			n.setOcc(cnt)
			n.count++
			n.Children = append(n.Children, right.Children[0])
			parent.Keys[slot] = right.Keys[0]
			rcnt := int(right.count)
			copy(right.Keys[:rcnt-1], right.Keys[1:rcnt])
			right.Keys[rcnt-1] = SentinelKey
			right.clearOcc(rcnt - 1)
			right.count--
			right.Children = append(right.Children[:0], right.Children[1:]...)
			return
		}
	}
	if slot > 0 {
		left := parent.Children[slot-1]
		seps := append(make([]keys.Key, 0, t.sepCap()), left.Keys[:left.count]...)
		seps = append(seps, parent.Keys[slot-1])
		seps = append(seps, n.Keys[:n.count]...)
		left.Children = append(left.Children, n.Children...)
		SetInternalGapped(left, t.sepCap(), seps, left.Children)
		parent.internalRemoveAt(slot)
		t.rebalanceInternal(parent, path, lvl-1)
	} else if slot+1 < len(parent.Children) {
		right := parent.Children[slot+1]
		seps := append(make([]keys.Key, 0, t.sepCap()), n.Keys[:n.count]...)
		seps = append(seps, parent.Keys[slot])
		seps = append(seps, right.Keys[:right.count]...)
		n.Children = append(n.Children, right.Children...)
		SetInternalGapped(n, t.sepCap(), seps, n.Children)
		parent.internalRemoveAt(slot + 1)
		t.rebalanceInternal(parent, path, lvl-1)
	}
	// else: no sibling under a relaxed single-child parent — the node
	// stays underfull, which RelaxedFill permits (relaxed.go).
}

// Scan visits every key-value pair in ascending key order until fn
// returns false, using the leaf chain.
func (t *Tree) Scan(fn func(k keys.Key, v keys.Value) bool) {
	n := t.root
	for !n.Leaf() {
		n = n.Children[0]
	}
	for ; n != nil; n = n.Next {
		for i := n.FirstSlot(); i < len(n.Keys); i = n.NextSlot(i) {
			if !fn(n.Keys[i], n.Vals[i]) {
				return
			}
		}
	}
}

// ScanRange visits pairs with lo <= key < hi in ascending order.
func (t *Tree) ScanRange(lo, hi keys.Key, fn func(k keys.Key, v keys.Value) bool) {
	leaf := t.FindLeaf(lo, nil)
	for ; leaf != nil; leaf = leaf.Next {
		for i := leaf.FirstSlot(); i < len(leaf.Keys); i = leaf.NextSlot(i) {
			k := leaf.Keys[i]
			if k < lo {
				continue
			}
			if k >= hi {
				return
			}
			if !fn(k, leaf.Vals[i]) {
				return
			}
		}
	}
}

// Height returns the number of levels (1 for a lone root leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.Leaf(); n = n.Children[0] {
		h++
	}
	return h
}

// Apply evaluates a single query against the tree with the exact
// semantics of §II-A, recording search results into rs when non-nil.
// It is the serial reference evaluator used by baselines and tests.
func (t *Tree) Apply(q keys.Query, rs *keys.ResultSet) {
	switch q.Op {
	case keys.OpSearch:
		v, ok := t.Search(q.Key)
		if rs != nil {
			rs.Set(q.Idx, v, ok)
		}
	case keys.OpInsert:
		t.Insert(q.Key, q.Value)
	case keys.OpDelete:
		t.Delete(q.Key)
	}
}

// ApplyAll evaluates a query sequence serially, in order.
func (t *Tree) ApplyAll(qs []keys.Query, rs *keys.ResultSet) {
	for _, q := range qs {
		t.Apply(q, rs)
	}
}
