package palm

import "repro/internal/btree"

// parentRun is a contiguous range [lo, hi) of same-parent modification
// requests within one restructuring level.
type parentRun struct{ lo, hi int }

// restructure runs Stage 3: modification requests produced by Stage 2
// propagate bottom-up, one tree level per superstep. Requests for the
// same parent are contiguous in p.reqs (key order), get assigned to a
// single worker, and are applied by rebuilding the parent's child and
// separator arrays in one pass. Overflowing parents are multi-way split
// and emptied parents removed, producing the next level's requests.
func (p *Processor) restructure() {
	leafRemoved := false
	for _, r := range p.reqs {
		if r.repl == nil && r.parent != nil {
			leafRemoved = true
			break
		}
	}

	reqs := p.reqs
	for {
		// Separate root-level requests (parent == nil); they are
		// finalized sequentially after the parallel levels.
		var rootReq *modRequest
		n := 0
		for i := range reqs {
			if reqs[i].parent == nil {
				r := reqs[i]
				rootReq = &r
			} else {
				reqs[n] = reqs[i]
				n++
			}
		}
		reqs = reqs[:n]
		if len(reqs) == 0 {
			if rootReq != nil {
				p.finalizeRoot(rootReq)
			}
			break
		}
		if rootReq != nil {
			// Root requests can only appear once all deeper levels are
			// done, because levels strictly decrease.
			panic("palm: root request alongside deeper requests")
		}

		// Group contiguous requests by parent (runs scratch is reused
		// across levels and batches).
		runs := p.runs[:0]
		for lo := 0; lo < len(reqs); {
			hi := lo + 1
			for hi < len(reqs) && reqs[hi].parent == reqs[lo].parent {
				hi++
			}
			runs = append(runs, parentRun{lo, hi})
			lo = hi
		}
		p.runs = runs

		for i := range p.perW {
			p.perW[i].reqs = p.perW[i].reqs[:0]
		}
		nw := p.pool.N()
		p.pool.Run(func(tid int) {
			rlo, rhi := p.pool.Range(tid, len(runs))
			w := &p.perW[tid]
			for ri := rlo; ri < rhi; ri++ {
				run := runs[ri]
				p.applyToParent(reqs[run.lo:run.hi], w)
			}
			_ = nw
		})

		p.nextReq = p.nextReq[:0]
		for t := range p.perW {
			p.nextReq = append(p.nextReq, p.perW[t].reqs...)
		}
		reqs, p.nextReq = p.nextReq, reqs
	}

	// Root collapse: an internal root left with a single child shrinks
	// the tree (possibly repeatedly).
	root := p.tree.Root()
	for !root.Leaf() && len(root.Children) == 1 {
		root = root.Children[0]
	}
	p.tree.SetRoot(root)

	if leafRemoved {
		p.relinkLeaves()
	}
}

// applyToParent rebuilds one parent node from its (slot-ascending)
// requests and emits an upward request if the parent overflowed or
// emptied.
func (p *Processor) applyToParent(reqs []modRequest, w *workerScratch) {
	parent := reqs[0].parent
	// Build the new child list in the worker's scratch buffer (reused
	// across parents and batches), then copy it into the parent's own
	// array, growing the latter only when capacity is insufficient.
	buf := w.children[:0]
	ri := 0
	for s, c := range parent.Children {
		if ri < len(reqs) && reqs[ri].slot == s {
			buf = append(buf, reqs[ri].repl...)
			ri++
		} else {
			buf = append(buf, c)
		}
	}
	w.children = buf[:0]
	if ri != len(reqs) {
		panic("palm: unconsumed modification request (slot mismatch)")
	}

	level := reqs[0].level
	path := reqs[0].path
	up := modRequest{path: path, level: level - 1}
	if level > 0 {
		up.parent = path.Nodes[level-1]
		up.slot = path.Slots[level-1]
	}

	if len(buf) == 0 {
		// Parent emptied: remove it from its own parent.
		parent.Children = parent.Children[:0]
		parent.Keys = parent.Keys[:0]
		w.reqs = append(w.reqs, up)
		return
	}

	if cap(parent.Children) >= len(buf) {
		parent.Children = parent.Children[:len(buf)]
	} else {
		parent.Children = make([]*btree.Node, len(buf))
	}
	copy(parent.Children, buf)
	btree.PackInternalGapped(parent, p.tree.Order())

	if len(parent.Children) > p.tree.Order() {
		up.repl = splitInternalMulti(parent, p.tree.Order())
		w.splits += int64(len(up.repl) - 1)
		w.reqs = append(w.reqs, up)
	}
}

// splitInternalMulti splits an overfull internal node into balanced
// pieces of at most maxChildren children each, reusing the node as the
// leftmost piece; every piece is repacked at the fixed sentinel-padded
// width.
func splitInternalMulti(n *btree.Node, maxChildren int) []*btree.Node {
	ct := len(n.Children)
	pieces := (ct + maxChildren - 1) / maxChildren
	base, rem := ct/pieces, ct%pieces
	out := make([]*btree.Node, 0, pieces)
	out = append(out, n)
	first := base
	if rem > 0 {
		first++
	}
	start := first
	for i := 1; i < pieces; i++ {
		sz := base
		if i < rem {
			sz++
		}
		sib := &btree.Node{
			Children: append(make([]*btree.Node, 0, maxChildren+1), n.Children[start:start+sz]...),
		}
		btree.PackInternalGapped(sib, maxChildren)
		out = append(out, sib)
		start += sz
	}
	n.Children = n.Children[:first]
	btree.PackInternalGapped(n, maxChildren)
	return out
}

// finalizeRoot applies a request whose target child was the root itself.
func (p *Processor) finalizeRoot(r *modRequest) {
	switch {
	case r.repl == nil:
		// The root emptied. If it was a leaf it legally stays empty; if
		// it was internal (all subtrees deleted), reset to a fresh
		// empty leaf.
		root := p.tree.Root()
		if !root.Leaf() {
			p.tree.SetRoot(btree.NewGappedLeaf(p.tree.Order() - 1))
		}
	case len(r.repl) == 1:
		p.tree.SetRoot(r.repl[0])
	default:
		// The root split into multiple pieces; build new levels above
		// until a single root remains. The split itself was already
		// counted where the pieces were produced (Stage 2 or
		// applyToParent), so only the tree grows here.
		level := r.repl
		order := p.tree.Order()
		for len(level) > 1 {
			parents := make([]*btree.Node, 0, (len(level)+order-1)/order)
			for lo := 0; lo < len(level); lo += order {
				hi := lo + order
				if hi > len(level) {
					hi = len(level)
				}
				parent := &btree.Node{
					Children: append(make([]*btree.Node, 0, order+1), level[lo:hi]...),
				}
				btree.PackInternalGapped(parent, order)
				parents = append(parents, parent)
			}
			level = parents
		}
		p.tree.SetRoot(level[0])
	}
}

// relinkLeaves rebuilds the leaf chain after leaves were removed. The
// tree's structure is already correct; only Next pointers of leaves
// adjacent to removed ones are stale. A single in-order walk repairs
// them (see DESIGN.md: removals are rare — a batch must delete every
// key in a leaf — so the occasional O(#leaves) sweep is cheap next to
// batch evaluation).
func (p *Processor) relinkLeaves() {
	var prev *btree.Node
	var walk func(n *btree.Node)
	walk = func(n *btree.Node) {
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
	walk(p.tree.Root())
	if prev != nil {
		prev.Next = nil
	}
}
