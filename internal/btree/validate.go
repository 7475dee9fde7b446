package btree

import (
	"fmt"
	"math/bits"

	"repro/internal/keys"
)

// FillPolicy selects which minimum-fill invariant Validate enforces.
type FillPolicy int

const (
	// StrictFill enforces the textbook minimums: non-root internal nodes
	// have >= ceil(order/2) children, non-root leaves >= floor((order-1)/2)
	// entries. The serial Tree maintains this.
	StrictFill FillPolicy = iota
	// RelaxedFill only requires nodes to be non-empty. PALM's batched
	// restructuring (like the paper's open-source baseline) may leave
	// under-full nodes after deletions but never empty ones.
	RelaxedFill
)

// Validate checks every structural invariant of the tree and returns the
// first violation found, or nil. Checked invariants:
//
//  1. Keys within every node strictly ascend.
//  2. Internal nodes have len(Children) == len(Keys)+1 and no Vals;
//     leaves have len(Vals) == len(Keys) and no Children.
//  3. Separator keys bound their subtrees: subtree i < Keys[i] <= subtree i+1,
//     and Keys[i] equals the smallest key of subtree i+1's leftmost leaf.
//  4. All leaves are at the same depth.
//  5. The leaf chain visits exactly the leaves, left to right.
//  6. Node sizes respect order and the fill policy.
//  7. Tree.Len() equals the total number of leaf entries.
//  8. Every node satisfies the gapped slot invariants: fixed array
//     width, count == bitmap popcount, occupied keys strictly ascend,
//     and every free slot duplicates the nearest occupied entry to its
//     right (or holds SentinelKey/0 past the last entry). Internal
//     nodes keep their separators as a dense prefix.
func (t *Tree) Validate(policy FillPolicy) error {
	type frame struct {
		n     *Node
		depth int
		lo    keys.Key
		hasLo bool
		hi    keys.Key
		hasHi bool
	}
	leafDepth := -1
	var leaves []*Node
	entries := 0

	var walk func(f frame) error
	walk = func(f frame) error {
		n := f.n
		if err := t.validateGappedSlots(n, f.depth); err != nil {
			return err
		}
		// Bounds apply to real entries only: the sentinel tail
		// legitimately exceeds any upper bound.
		for i := n.FirstSlot(); i < len(n.Keys); i = n.NextSlot(i) {
			k := n.Keys[i]
			if f.hasLo && k < f.lo {
				return fmt.Errorf("btree: key %d below lower bound %d at depth %d", k, f.lo, f.depth)
			}
			if f.hasHi && k >= f.hi {
				return fmt.Errorf("btree: key %d not below upper bound %d at depth %d", k, f.hi, f.depth)
			}
		}
		if n.Leaf() {
			if len(n.Vals) != len(n.Keys) {
				return fmt.Errorf("btree: leaf with %d key slots but %d val slots", len(n.Keys), len(n.Vals))
			}
			if len(n.Keys) != t.maxLeafEntries() {
				return fmt.Errorf("btree: gapped leaf has %d slots, want %d", len(n.Keys), t.maxLeafEntries())
			}
			if err := n.validateGapFill(f.depth); err != nil {
				return err
			}
			if leafDepth == -1 {
				leafDepth = f.depth
			} else if leafDepth != f.depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, f.depth)
			}
			if n != t.root {
				switch policy {
				case StrictFill:
					if n.Len() < t.minLeafEntries() {
						return fmt.Errorf("btree: leaf underfull: %d < %d", n.Len(), t.minLeafEntries())
					}
				case RelaxedFill:
					if n.Len() == 0 {
						return fmt.Errorf("btree: empty non-root leaf")
					}
				}
			}
			leaves = append(leaves, n)
			entries += n.Len()
			return nil
		}
		if n.Vals != nil {
			return fmt.Errorf("btree: internal node with vals at depth %d", f.depth)
		}
		if len(n.Children) != n.Len()+1 {
			return fmt.Errorf("btree: internal node with %d keys but %d children", n.Len(), len(n.Children))
		}
		if n.Len() <= t.sepCap() && len(n.Keys) != t.sepCap() {
			return fmt.Errorf("btree: gapped internal node has %d slots, want %d", len(n.Keys), t.sepCap())
		}
		// Separators are a dense prefix with a free sentinel tail.
		for i := 0; i < n.Len(); i++ {
			if !n.Occupied(i) {
				return fmt.Errorf("btree: gapped internal separator slot %d free at depth %d", i, f.depth)
			}
		}
		for i := n.Len(); i < len(n.Keys); i++ {
			if n.Occupied(i) || n.Keys[i] != SentinelKey {
				return fmt.Errorf("btree: gapped internal tail slot %d not sentinel at depth %d", i, f.depth)
			}
		}
		if len(n.Children) > t.order {
			return fmt.Errorf("btree: internal node overfull: %d > %d children", len(n.Children), t.order)
		}
		// A relaxed non-root internal node needs no check of its own:
		// len(Children) == Len()+1 above already gives it a child.
		if n != t.root {
			if policy == StrictFill && len(n.Children) < t.minChildren() {
				return fmt.Errorf("btree: internal node underfull: %d < %d children", len(n.Children), t.minChildren())
			}
		} else if len(n.Children) < 2 {
			return fmt.Errorf("btree: internal root with %d children", len(n.Children))
		}
		for i, c := range n.Children {
			cf := frame{n: c, depth: f.depth + 1, lo: f.lo, hasLo: f.hasLo, hi: f.hi, hasHi: f.hasHi}
			if i > 0 {
				cf.lo, cf.hasLo = n.Keys[i-1], true
			}
			if i < n.Len() {
				cf.hi, cf.hasHi = n.Keys[i], true
			}
			if err := walk(cf); err != nil {
				return err
			}
		}
		// Separators are routing values: the recursive bound checks
		// above already guarantee subtree(i) < Keys[i] <= subtree(i+1),
		// which is the full separator invariant. Equality with the
		// right subtree's minimum holds at split time but legitimately
		// goes stale when that minimum is later deleted (textbook
		// behavior), so it is deliberately not checked.
		return nil
	}

	if t.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	if err := walk(frame{n: t.root, depth: 0}); err != nil {
		return err
	}

	// Leaf chain must equal the in-order leaf list.
	n := t.root
	for !n.Leaf() {
		n = n.Children[0]
	}
	i := 0
	for ; n != nil; n = n.Next {
		if i >= len(leaves) || leaves[i] != n {
			return fmt.Errorf("btree: leaf chain diverges at position %d", i)
		}
		i++
	}
	if i != len(leaves) {
		return fmt.Errorf("btree: leaf chain has %d leaves, tree has %d", i, len(leaves))
	}

	if entries != t.size {
		return fmt.Errorf("btree: size %d but %d leaf entries", t.size, entries)
	}
	return nil
}

// validateGappedSlots checks the slot invariants common to every node: bitmap sizing, count == popcount, the full slot array
// non-decreasing, and occupied keys strictly ascending.
func (t *Tree) validateGappedSlots(n *Node, depth int) error {
	c := len(n.Keys)
	if len(n.occ) != occWords(c) {
		return fmt.Errorf("btree: gapped node bitmap has %d words for %d slots at depth %d", len(n.occ), c, depth)
	}
	pop := 0
	for w, word := range n.occ {
		pop += bits.OnesCount64(word)
		lo := w * 64
		if hi := lo + 64; hi > c && word>>(uint(c-lo)) != 0 {
			return fmt.Errorf("btree: gapped node bitmap has bits past slot %d at depth %d", c, depth)
		}
	}
	if pop != int(n.count) {
		return fmt.Errorf("btree: gapped node count %d but %d occupied slots at depth %d", n.count, pop, depth)
	}
	for i := 1; i < c; i++ {
		if n.Keys[i-1] > n.Keys[i] {
			return fmt.Errorf("btree: gapped node slots not sorted at depth %d: %v", depth, n.Keys)
		}
	}
	prev := -1
	for i := n.FirstSlot(); i < c; i = n.NextSlot(i) {
		if prev >= 0 && n.Keys[prev] >= n.Keys[i] {
			return fmt.Errorf("btree: gapped entries not strictly ascending at depth %d: %v", depth, n.Keys)
		}
		prev = i
	}
	return nil
}

// validateGapFill checks a gapped leaf's duplicate-fill rule: every
// free slot holds a copy of the nearest occupied entry to its right,
// or (SentinelKey, 0) when there is none.
func (n *Node) validateGapFill(depth int) error {
	c := len(n.Keys)
	for s := 0; s < c; s++ {
		if n.Occupied(s) {
			continue
		}
		if j := n.nextOcc(s); j < c {
			if n.Keys[s] != n.Keys[j] || n.Vals[s] != n.Vals[j] {
				return fmt.Errorf("btree: gap slot %d (%d,%d) does not duplicate anchor %d (%d,%d) at depth %d",
					s, n.Keys[s], n.Vals[s], j, n.Keys[j], n.Vals[j], depth)
			}
		} else if n.Keys[s] != SentinelKey || n.Vals[s] != 0 {
			return fmt.Errorf("btree: tail slot %d is (%d,%d), want sentinel at depth %d", s, n.Keys[s], n.Vals[s], depth)
		}
	}
	return nil
}

// Dump returns the key-value pairs in ascending key order; used by the
// differential tests to compare against the oracle.
func (t *Tree) Dump() (ks []keys.Key, vs []keys.Value) {
	t.Scan(func(k keys.Key, v keys.Value) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
}

// CountNodes returns the number of internal nodes and leaves.
func (t *Tree) CountNodes() (internal, leaf int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			leaf++
			return
		}
		internal++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	return internal, leaf
}
