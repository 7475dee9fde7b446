package palm

// Sorted-batch tree kernels (DESIGN.md §8). A key-sorted batch gives
// the tree stages structure that per-query code cannot see:
//
//   - Stage 1 visits leaves in strictly ascending key order against a
//     tree that is read-only until Stage 2, so the previous descent
//     path stays valid and most queries resolve with a fence check
//     instead of a root-to-leaf walk (finder, below).
//   - All node probes take the shared branchless kernels in
//     internal/btree (SearchGE/SearchGT/LeafFind).
//   - A leaf group is a sorted run of queries against a sorted leaf.
//     Sparse groups claim gaps one query at a time; mutation-dense or
//     overflowing groups are applied in one merge pass and repacked
//     (mergeApply), instead of a binary search plus shift per query.

import (
	"repro/internal/btree"
	"repro/internal/keys"
)

// finder locates the leaf covering each key of an ascending probe
// sequence, reusing the previous root-to-leaf path (path-reuse descent,
// §IV-E/§V-A exploitation of pre-sorting): alongside the path it
// records, per level, the cumulative key range [low, high) of the
// subtree entered there — the "fences". If the next key still falls
// inside the current leaf's fences the descent is skipped entirely; if
// not, the finder climbs the recorded path to the lowest level whose
// fences still cover the key and re-descends only the changed suffix.
//
// Correctness rests on the tree being read-only while the finder is in
// use: Stage 1 (and the find-and-answer fast path) only read the tree,
// and all structural modification happens in the later, barrier-
// separated Stages 2-3, after which the finder is reset. The fences are
// exact (derived from the separators actually passed, intersected down
// the path), so reuse never returns a different leaf than a fresh root
// descent — the property differentially enforced by the kernel tests.
//
// A finder is per-worker scratch: arrays keep their capacity across
// batches, so steady-state descents allocate nothing.
type finder struct {
	tree *btree.Tree
	path btree.Path  // root-to-leaf internal path of the current leaf
	leaf *btree.Node // current leaf; nil before the first descent
	// Cumulative fences of the subtree entered at each path level.
	// hasLow/hasHigh distinguish "unbounded" (edge of the tree) from a
	// real separator, so no key value is sacrificed as a sentinel.
	low, high       []keys.Key
	hasLow, hasHigh []bool
	fenceHits       int64 // descents skipped entirely (stats)
}

// reset invalidates the finder for a fresh batch (the tree may have
// been restructured since the last one). Backing arrays are kept.
func (f *finder) reset(tree *btree.Tree) {
	f.tree = tree
	f.leaf = nil
	f.path.Reset()
	f.low = f.low[:0]
	f.high = f.high[:0]
	f.hasLow = f.hasLow[:0]
	f.hasHigh = f.hasHigh[:0]
}

// covers reports whether the subtree entered at path level lvl covers k.
func (f *finder) covers(lvl int, k keys.Key) bool {
	if f.hasLow[lvl] && k < f.low[lvl] {
		return false
	}
	if f.hasHigh[lvl] && k >= f.high[lvl] {
		return false
	}
	return true
}

// find returns the leaf covering k. After find returns, f.path holds
// the leaf's full root-to-leaf internal path (as btree.Tree.FindLeaf
// would record it).
func (f *finder) find(k keys.Key) *btree.Node {
	if f.leaf == nil {
		return f.descendFrom(f.tree.Root(), 0, k)
	}
	d := f.path.Len()
	// Fence ranges are nested (level l+1's range is contained in level
	// l's), so the levels still covering k form a prefix of the path:
	// climb from the bottom to the deepest covering level.
	lvl := d - 1
	for lvl >= 0 && !f.covers(lvl, k) {
		lvl--
	}
	if lvl == d-1 {
		// The current leaf's fences still cover k — no descent at all.
		// (d == 0 means the root is a leaf, which covers every key.)
		f.fenceHits++
		return f.leaf
	}
	if lvl < 0 {
		return f.descendFrom(f.tree.Root(), 0, k)
	}
	// The child entered at level lvl covers k; redo only the suffix.
	return f.descendFrom(f.path.Nodes[lvl].Children[f.path.Slots[lvl]], lvl+1, k)
}

// evalGroup applies one leaf group's queries to its leaf (DESIGN.md
// §10) and emits a modification request if the leaf overflowed or
// emptied. Searches probe with btree.LeafFind; inserts and deletes go
// through the O(1)-ish gapped single-entry ops (claim the gap at the
// insertion point, else shift to the nearest gap). Mutation-dense
// groups are the merge kernel's regime — one linear pass beats
// per-query probing once a sizable fraction of the leaf turns over —
// so those hand off to mergeApply up front; sparse groups reach it
// only to resolve an overflow.
func (p *Processor) evalGroup(g *leafGroup, qs []keys.Query, rs *keys.ResultSet, w *workerScratch, answerDuringFind bool) {
	leaf := g.leaf
	if g.hi-g.lo >= 8 {
		muts := 0
		for i := g.lo; i < g.hi; i++ {
			if qs[i].Op != keys.OpSearch {
				muts++
			}
		}
		if muts >= 8 && muts*4 >= leaf.Len() {
			p.mergeApply(g, qs, rs, w, g.lo, answerDuringFind)
			return
		}
	}
	for i := g.lo; i < g.hi; i++ {
		q := qs[i]
		switch q.Op {
		case keys.OpSearch:
			if !answerDuringFind || q.LeafAnswer {
				v, ok := btree.LeafFind(leaf, q.Key)
				rs.Set(q.Idx, v, ok)
			}
		case keys.OpInsert:
			ed := leaf.InsertGapped(q.Key, q.Value)
			if ed.Full {
				p.mergeApply(g, qs, rs, w, i, answerDuringFind)
				return
			}
			if ed.Added {
				w.sizeDelta++
			}
			if ed.GapClaim {
				w.gapClaims++
			}
			w.shiftedSlots += int64(ed.Shifted)
		case keys.OpDelete:
			ed := leaf.DeleteGapped(q.Key)
			if ed.Removed {
				w.sizeDelta--
			}
			w.shiftedSlots += int64(ed.Shifted)
		case keys.OpRMW:
			old, found := btree.LeafFind(leaf, q.Key)
			rs.Set(q.Idx, old, found)
			if found && q.RMW == keys.RMWSetIfAbsent {
				break // present: set-if-absent is a no-op
			}
			nv := q.Value
			if found {
				nv = old + q.Value // RMWAdd over the present value
			}
			ed := leaf.InsertGapped(q.Key, nv)
			if ed.Full {
				// Re-running query i in the overflow merge repeats the
				// probe against unchanged state, so the re-recorded
				// result is identical.
				p.mergeApply(g, qs, rs, w, i, answerDuringFind)
				return
			}
			if ed.Added {
				w.sizeDelta++
			}
			if ed.GapClaim {
				w.gapClaims++
			}
			w.shiftedSlots += int64(ed.Shifted)
		}
		w.leafOps++
	}
	if leaf.Len() == 0 {
		w.reqs = append(w.reqs, modRequest{
			parent: parentOf(&g.path), path: &g.path,
			level: g.path.Len() - 1, slot: slotOf(&g.path),
			repl: nil,
		})
	}
}

// mergeApply finishes a leaf group from query index start (the whole
// group when it is mutation-dense, else the insert that found the leaf
// full): the leaf's live entries are compacted into worker scratch and
// the remaining queries merged over them in one forward sweep — both
// are sorted by key, so there is no per-query probe and no per-insert
// shift. Serial in-batch semantics hold because same-key query runs
// consult the rebuilt tail: a search after an insert of the same key
// sees the new value, after a delete an absent key. The result is
// repacked — into the leaf itself with fresh evenly spread gaps when
// it fits, or into multiple ~7/8-full pieces (the PALM "big split",
// original node leftmost so external Next pointers stay valid) when it
// does not.
func (p *Processor) mergeApply(g *leafGroup, qs []keys.Query, rs *keys.ResultSet, w *workerScratch, start int, answerDuringFind bool) {
	leaf := g.leaf
	lk, lv := leaf.AppendEntries(w.leafKeys[:0], w.leafVals[:0])
	w.leafKeys, w.leafVals = lk, lv
	mk, mv := w.mergeKeys[:0], w.mergeVals[:0]
	li := 0
	for i := start; i < g.hi; i++ {
		q := qs[i]
		k := q.Key
		for li < len(lk) && lk[li] < k {
			mk = append(mk, lk[li])
			mv = append(mv, lv[li])
			li++
		}
		// If the previous query in this group had the same key, its
		// outcome is the tail of the rebuilt run — in-batch visibility.
		tailIsK := len(mk) > 0 && mk[len(mk)-1] == k
		switch q.Op {
		case keys.OpSearch:
			if !answerDuringFind || q.LeafAnswer {
				switch {
				case tailIsK:
					rs.Set(q.Idx, mv[len(mv)-1], true)
				case li < len(lk) && lk[li] == k:
					rs.Set(q.Idx, lv[li], true)
				default:
					rs.Set(q.Idx, 0, false)
				}
			}
		case keys.OpInsert:
			switch {
			case tailIsK:
				mv[len(mv)-1] = q.Value
			case li < len(lk) && lk[li] == k:
				mk = append(mk, k)
				mv = append(mv, q.Value)
				li++
			default:
				mk = append(mk, k)
				mv = append(mv, q.Value)
				w.sizeDelta++
			}
		case keys.OpDelete:
			switch {
			case tailIsK:
				mk = mk[:len(mk)-1]
				mv = mv[:len(mv)-1]
				w.sizeDelta--
			case li < len(lk) && lk[li] == k:
				li++
				w.sizeDelta--
			}
		case keys.OpRMW:
			switch {
			case tailIsK:
				old := mv[len(mv)-1]
				rs.Set(q.Idx, old, true)
				if q.RMW == keys.RMWAdd {
					mv[len(mv)-1] = old + q.Value
				}
			case li < len(lk) && lk[li] == k:
				old := lv[li]
				rs.Set(q.Idx, old, true)
				nv := old
				if q.RMW == keys.RMWAdd {
					nv = old + q.Value
				}
				mk = append(mk, k)
				mv = append(mv, nv)
				li++
			default:
				rs.Set(q.Idx, 0, false)
				mk = append(mk, k)
				mv = append(mv, q.Value)
				w.sizeDelta++
			}
		}
		w.leafOps++
	}
	mk = append(mk, lk[li:]...)
	mv = append(mv, lv[li:]...)
	w.mergeKeys, w.mergeVals = mk, mv
	w.shiftedSlots += int64(len(mk))

	m := len(mk)
	req := modRequest{
		parent: parentOf(&g.path), path: &g.path,
		level: g.path.Len() - 1, slot: slotOf(&g.path),
	}
	if m == 0 {
		// Empty the leaf itself too: a parent unlinks it, but a root
		// leaf stays, and must not keep its old entries.
		btree.PackLeafGapped(leaf, nil, nil)
		w.reqs = append(w.reqs, req) // nil repl: remove the emptied leaf
		return
	}
	c := leaf.Cap()
	if m <= c {
		// Deletes made room again: repack in place, no split.
		btree.PackLeafGapped(leaf, mk, mv)
		return
	}
	// Genuinely full: big-split into balanced pieces at ~7/8 fill.
	target := c * 7 / 8
	if target < 1 {
		target = 1
	}
	pieces := (m + target - 1) / target
	base, rem := m/pieces, m%pieces
	pieceSize := func(i int) int {
		if i < rem {
			return base + 1
		}
		return base
	}
	out := make([]*btree.Node, 0, pieces)
	out = append(out, leaf)
	next := leaf.Next
	prev := leaf
	pos := pieceSize(0)
	for i := 1; i < pieces; i++ {
		sz := pieceSize(i)
		sib := btree.NewGappedLeaf(c)
		btree.PackLeafGapped(sib, mk[pos:pos+sz], mv[pos:pos+sz])
		prev.Next = sib
		prev = sib
		out = append(out, sib)
		pos += sz
	}
	prev.Next = next
	btree.PackLeafGapped(leaf, mk[:pieceSize(0)], mv[:pieceSize(0)])
	w.splits += int64(pieces - 1)
	req.repl = out
	w.reqs = append(w.reqs, req)
}

// descendFrom truncates the recorded path to depth levels and descends
// from n (the node at that depth) to the leaf covering k, recording
// path and fences.
func (f *finder) descendFrom(n *btree.Node, depth int, k keys.Key) *btree.Node {
	f.path.Nodes = f.path.Nodes[:depth]
	f.path.Slots = f.path.Slots[:depth]
	f.low = f.low[:depth]
	f.high = f.high[:depth]
	f.hasLow = f.hasLow[:depth]
	f.hasHigh = f.hasHigh[:depth]
	for !n.Leaf() {
		s := btree.SearchGT(n.Keys, k)
		// The sentinel tail can push the probe past the last child when
		// k == SentinelKey.
		if s >= len(n.Children) {
			s = len(n.Children) - 1
		}
		// The new level's fences: local separators where present,
		// inherited from the level above at the node's edges (a child's
		// keys are already bounded by every ancestor separator). The
		// separator tests use n.Len(), not len(n.Keys): the node's
		// sentinel tail is not a separator, and treating it as one would
		// overwrite the tighter inherited ancestor fence with the
		// sentinel — widening the fence and letting path reuse return a
		// stale leaf for keys at and beyond the real ancestor bound.
		var lo, hi keys.Key
		var hasLo, hasHi bool
		if d := f.path.Len(); d > 0 {
			lo, hi = f.low[d-1], f.high[d-1]
			hasLo, hasHi = f.hasLow[d-1], f.hasHigh[d-1]
		}
		if s > 0 {
			lo, hasLo = n.Keys[s-1], true
		}
		if s < n.Len() {
			hi, hasHi = n.Keys[s], true
		}
		f.path.Push(n, s)
		f.low = append(f.low, lo)
		f.high = append(f.high, hi)
		f.hasLow = append(f.hasLow, hasLo)
		f.hasHigh = append(f.hasHigh, hasHi)
		n = n.Children[s]
	}
	f.leaf = n
	return n
}
