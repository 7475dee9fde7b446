package btree

import "repro/internal/keys"

// This file holds the shared intra-node search kernels (DESIGN.md §8).
// Every hot-path probe in the repository — the serial tree's descent,
// PALM's Stage-1 leaf location, Stage-2 leaf evaluation, and the QTrans
// find-and-answer fast path — routes through these two primitives, so a
// kernel improvement lands everywhere at once.
//
// SearchGE/SearchGT use a branch-free binary search: the probe load is
// unconditional and the narrowing step reduces to a conditional
// register select (CMOV-class codegen), with a fixed iteration count
// per node width. Against a closure-based sort.Search this removes the
// per-probe function-call indirection and the data-dependent control
// flow that random probe keys inflict on a predicted binary search
// (BenchmarkSearchKernels keeps the sort.Search form as its reference
// arm). It is the software stand-in for the paper artifact's AVX-512
// intra-node SIMD search (DESIGN.md §4.1); BS-tree (arXiv:2505.01180)
// measures the same branchless layout effect on CPU B+ trees.

// gappedWidth is the fixed key-array width of a gapped node at the
// default order (DefaultOrder - 1). Every node of a default-order tree
// hits the unrolled fixed-width kernels below, the BS-tree payoff of
// the sentinel-padded layout: the iteration count is a compile-time
// constant, the array conversion erases every per-load bounds check,
// and each narrowing step is an unconditional load plus a register
// select. Other widths (non-default orders, and internal nodes grown
// transiently past capacity) fall back to the generic loop.
const gappedWidth = DefaultOrder - 1

// SearchGE returns the index of the first key in ks >= k, or len(ks)
// when every key is smaller — the leaf-probe kernel.
func SearchGE(ks []keys.Key, k keys.Key) int {
	if len(ks) == gappedWidth {
		return searchGE63((*[gappedWidth]keys.Key)(ks), k)
	}
	// Invariant: the answer lies in [lo, lo+n]. The probe load is
	// unconditional and the narrowing step is a pure register select,
	// which the compiler lowers to CMOV — no data-dependent branch.
	lo, n := 0, len(ks)
	for n > 1 {
		half := n >> 1
		mid := lo + half
		v := ks[mid-1]
		n -= half
		if v < k {
			lo = mid
		}
	}
	if n == 1 && ks[lo] < k {
		lo++
	}
	return lo
}

// searchGE63 is SearchGE unrolled for the fixed gapped width: six
// branch-free narrowing steps (n: 63→32→16→8→4→2→1) plus the final
// element test, with all offsets known to be in bounds.
func searchGE63(ks *[gappedWidth]keys.Key, k keys.Key) int {
	lo := 0
	if ks[lo+30] < k { // half=31
		lo += 31
	}
	if ks[lo+15] < k { // half=16
		lo += 16
	}
	if ks[lo+7] < k { // half=8
		lo += 8
	}
	if ks[lo+3] < k { // half=4
		lo += 4
	}
	if ks[lo+1] < k { // half=2
		lo += 2
	}
	if ks[lo] < k { // half=1, then the n==1 tail merged in
		lo++
		if lo < gappedWidth && ks[lo] < k {
			lo++
		}
	}
	return lo
}

// SearchGT returns the index of the first key in ks > k, or len(ks)
// when every key is <= k — the inner-node child-step kernel: for an
// internal node, SearchGT(n.Keys, k) is the child slot covering k.
func SearchGT(ks []keys.Key, k keys.Key) int {
	if len(ks) == gappedWidth {
		return searchGT63((*[gappedWidth]keys.Key)(ks), k)
	}
	lo, n := 0, len(ks)
	for n > 1 {
		half := n >> 1
		mid := lo + half
		v := ks[mid-1]
		n -= half
		if v <= k {
			lo = mid
		}
	}
	if n == 1 && ks[lo] <= k {
		lo++
	}
	return lo
}

// searchGT63 is SearchGT unrolled for the fixed gapped width.
func searchGT63(ks *[gappedWidth]keys.Key, k keys.Key) int {
	lo := 0
	if ks[lo+30] <= k {
		lo += 31
	}
	if ks[lo+15] <= k {
		lo += 16
	}
	if ks[lo+7] <= k {
		lo += 8
	}
	if ks[lo+3] <= k {
		lo += 4
	}
	if ks[lo+1] <= k {
		lo += 2
	}
	if ks[lo] <= k {
		lo++
		if lo < gappedWidth && ks[lo] <= k {
			lo++
		}
	}
	return lo
}

// LeafFind looks key k up within a single leaf node. A gapped leaf's
// free slots duplicate the entry to their right, so a hit on a gap
// reads the correct pair; only a probe for SentinelKey itself needs
// the bitmap to tell a real maximal entry from the sentinel tail.
func LeafFind(leaf *Node, k keys.Key) (keys.Value, bool) {
	i := SearchGE(leaf.Keys, k)
	if i < len(leaf.Keys) && leaf.Keys[i] == k {
		if !leaf.leafHasAt(i) {
			return 0, false
		}
		return leaf.Vals[i], true
	}
	return 0, false
}
