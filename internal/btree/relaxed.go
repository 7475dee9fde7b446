package btree

// PALM's batched restructuring deletes under a relaxed fill invariant
// (validate.go: RelaxedFill): nodes may stay underfull, and an internal
// node can legally be left holding a single child. The serial delete
// path's rebalancing assumed strict fill — every underfull node has a
// sibling to borrow from or merge with — and indexed out of range the
// first time it walked into a relaxed single-child spine (the shard
// migration path, which drains trees with serial deletes, hit this).
// The helpers here cover the sibling-less cases: an underfull node with
// no sibling simply stays underfull, and a leaf that empties with no
// sibling is unlinked — emptied ancestors collapsing — so readers never
// meet an empty non-root leaf.

// dropLonelyLeaf handles a leaf that fell below minimum fill while its
// parent holds no other child. A non-empty leaf stays underfull; an
// empty one is removed, cascading the removal through ancestors that
// empty with it, and the leaf chain is repaired.
func (t *Tree) dropLonelyLeaf(leaf *Node, path *Path) {
	if leaf.Len() > 0 {
		return
	}
	lvl := path.Len() - 1
	n := path.Nodes[lvl]
	t.dropChild(n, path.Slots[lvl])
	for len(n.Children) == 0 {
		if lvl == 0 {
			// Every leaf hung off this spine: the tree is empty.
			t.root = NewGappedLeaf(t.maxLeafEntries())
			return
		}
		lvl--
		n = path.Nodes[lvl]
		t.dropChild(n, path.Slots[lvl])
	}
	t.rebalanceInternal(n, path, lvl)
	// A strict tree collapses the root at most one level; relaxed
	// single-child spines can chain, so keep collapsing.
	for !t.root.Leaf() && len(t.root.Children) == 1 {
		t.root = t.root.Children[0]
	}
	t.relinkLeaves()
}

// dropChild removes n.Children[slot] together with one adjacent
// separator, tolerating slot 0 and separator-less relaxed nodes
// (unlike internalRemoveAt, which the strict merge paths only ever
// call with slot >= 1).
func (t *Tree) dropChild(n *Node, slot int) {
	if cnt := int(n.count); cnt > 0 {
		ki := slot - 1
		if ki < 0 {
			ki = 0
		}
		copy(n.Keys[ki:cnt-1], n.Keys[ki+1:cnt])
		n.Keys[cnt-1] = SentinelKey
		n.clearOcc(cnt - 1)
		n.count--
	}
	n.Children = append(n.Children[:slot], n.Children[slot+1:]...)
}

// relinkLeaves rebuilds the leaf chain with one in-order walk. Only the
// rare lonely-leaf removal needs it serially (the batched restructure
// has its own sweep); the removal cannot reach the preceding leaf —
// which lives under a different subtree — through the singly-linked
// chain, so it re-derives the whole chain instead.
func (t *Tree) relinkLeaves() {
	var prev *Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			if prev != nil {
				prev.Next = n
			}
			prev = n
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	if prev != nil {
		prev.Next = nil
	}
}
