package btree

import (
	"fmt"
	"sort"

	"repro/internal/keys"
)

// BulkLoad builds a tree of the given order from key-value pairs in a
// single bottom-up pass, the standard way to construct a large B+ tree
// (the harness uses it to prefill paper-scale trees orders of magnitude
// faster than repeated insertion). ks must be strictly ascending and
// len(vs) == len(ks); violations are reported as errors.
//
// Leaves are filled to a target of ~87% of capacity (like stx-btree's
// bulk loader) so immediately-following inserts do not cascade splits,
// while keeping the tree within strict fill invariants; each leaf
// spreads its free slots evenly so those inserts land on a gap in O(1).
func BulkLoad(order int, ks []keys.Key, vs []keys.Value) (*Tree, error) {
	t, err := New(order)
	if err != nil {
		return nil, err
	}
	if len(ks) != len(vs) {
		return nil, fmt.Errorf("btree: bulk load with %d keys but %d values", len(ks), len(vs))
	}
	if len(ks) == 0 {
		return t, nil
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			return nil, fmt.Errorf("btree: bulk load keys not strictly ascending at %d", i)
		}
	}

	maxLeaf := t.maxLeafEntries()
	target := maxLeaf * 7 / 8
	if target < t.minLeafEntries() {
		target = maxLeaf
	}
	if target < 1 {
		target = 1
	}

	// Build the leaf level.
	leaves := chunkSizes(len(ks), target, t.minLeafEntries())
	level := make([]*Node, 0, len(leaves))
	pos := 0
	var prev *Node
	for _, sz := range leaves {
		leaf := NewGappedLeaf(maxLeaf)
		PackLeafGapped(leaf, ks[pos:pos+sz], vs[pos:pos+sz])
		if prev != nil {
			prev.Next = leaf
		}
		prev = leaf
		level = append(level, leaf)
		pos += sz
	}

	// Build internal levels until one root remains.
	maxCh := t.order
	targetCh := maxCh * 7 / 8
	if targetCh < t.minChildren() {
		targetCh = maxCh
	}
	if targetCh < 2 {
		targetCh = 2
	}
	for len(level) > 1 {
		groups := chunkSizes(len(level), targetCh, t.minChildren())
		next := make([]*Node, 0, len(groups))
		pos = 0
		for _, sz := range groups {
			n := &Node{Children: append(make([]*Node, 0, maxCh+1), level[pos:pos+sz]...)}
			PackInternalGapped(n, t.order)
			next = append(next, n)
			pos += sz
		}
		level = next
	}
	t.root = level[0]
	t.size = len(ks)
	return t, nil
}

// PackInternalGapped rewrites internal node n's key array from
// its current (dense) child list: separator i becomes the minimum key
// under child i+1, stored as a dense prefix with a sentinel tail at the
// fixed order-1 width. The array grows past that width transiently when
// the node is over-full; the caller resolves it by splitting.
func PackInternalGapped(n *Node, order int) {
	nsep := len(n.Children) - 1
	width := order - 1
	if nsep > width {
		width = nsep
	}
	if cap(n.Keys) >= width {
		n.Keys = n.Keys[:width]
	} else {
		n.Keys = make([]keys.Key, width)
	}
	for i := 1; i < len(n.Children); i++ {
		n.Keys[i-1] = subtreeMin(n.Children[i])
	}
	for i := nsep; i < width; i++ {
		n.Keys[i] = SentinelKey
	}
	words := occWords(width)
	if cap(n.occ) >= words {
		n.occ = n.occ[:words]
	} else {
		n.occ = make([]uint64, words)
	}
	for i := range n.occ {
		n.occ[i] = 0
	}
	for i := 0; i < nsep; i++ {
		n.setOcc(i)
	}
	n.count = int32(nsep)
	n.Vals = nil
}

// chunkSizes splits n items into chunks of at most target items while
// guaranteeing every chunk has at least min items (the final two chunks
// are rebalanced when the remainder would fall short). n >= 1.
func chunkSizes(n, target, min int) []int {
	if target < 1 {
		target = 1
	}
	if n <= target {
		return []int{n}
	}
	count := (n + target - 1) / target
	sizes := make([]int, count)
	base, rem := n/count, n%count
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	// Balanced division can only undershoot min when n < count*min,
	// which the count choice prevents for any min <= target/2 + 1 (the
	// B+ tree minimums). Guard against degenerate configurations.
	if sizes[len(sizes)-1] < min && count > 1 {
		sizes[len(sizes)-2] += sizes[len(sizes)-1]
		sizes = sizes[:len(sizes)-1]
	}
	return sizes
}

// subtreeMin returns the smallest key under n.
func subtreeMin(n *Node) keys.Key {
	for !n.Leaf() {
		n = n.Children[0]
	}
	return n.Keys[0]
}

// BulkLoadPairs sorts and deduplicates (last write wins) arbitrary
// pairs, then bulk loads them. Convenience for workload prefill.
func BulkLoadPairs(order int, pairs []keys.Query) (*Tree, error) {
	sorted := append([]keys.Query(nil), pairs...)
	keys.Number(sorted)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	ks := make([]keys.Key, 0, len(sorted))
	vs := make([]keys.Value, 0, len(sorted))
	for i, q := range sorted {
		if q.Op != keys.OpInsert {
			return nil, fmt.Errorf("btree: bulk load pair %d is not an insert", i)
		}
		if len(ks) > 0 && ks[len(ks)-1] == q.Key {
			vs[len(vs)-1] = q.Value // last write wins
			continue
		}
		ks = append(ks, q.Key)
		vs = append(vs, q.Value)
	}
	return BulkLoad(order, ks, vs)
}
