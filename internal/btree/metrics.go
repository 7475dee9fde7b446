package btree

// Metrics summarizes a tree's structure and space utilization — useful
// for validating bulk-load targets and for observing how batched
// restructuring (with its relaxed delete policy) shapes the tree over
// time.
type Metrics struct {
	Height        int
	InternalNodes int
	LeafNodes     int
	Entries       int
	// LeafFill is the mean leaf occupancy relative to the per-leaf
	// maximum, in [0, 1]. 0 for an empty tree.
	LeafFill float64
	// InternalFill is the mean internal fanout relative to the order,
	// in [0, 1]. 0 when the tree has no internal nodes.
	InternalFill float64
	// MinLeafEntries / MaxLeafEntries are the extreme leaf sizes
	// (excluding a root leaf).
	MinLeafEntries, MaxLeafEntries int
}

// CollectMetrics walks the tree once and returns its metrics.
func (t *Tree) CollectMetrics() Metrics {
	m := Metrics{Height: t.Height(), MinLeafEntries: int(^uint(0) >> 1)}
	maxLeaf := t.maxLeafEntries()
	var leafSum, internalSum int
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			m.LeafNodes++
			m.Entries += n.Len()
			leafSum += n.Len()
			if n != t.root {
				if n.Len() < m.MinLeafEntries {
					m.MinLeafEntries = n.Len()
				}
				if n.Len() > m.MaxLeafEntries {
					m.MaxLeafEntries = n.Len()
				}
			}
			return
		}
		m.InternalNodes++
		internalSum += len(n.Children)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	if m.LeafNodes > 0 && maxLeaf > 0 {
		m.LeafFill = float64(leafSum) / float64(m.LeafNodes*maxLeaf)
	}
	if m.InternalNodes > 0 {
		m.InternalFill = float64(internalSum) / float64(m.InternalNodes*t.order)
	}
	if m.MinLeafEntries == int(^uint(0)>>1) {
		m.MinLeafEntries = 0
	}
	return m
}

// VisitLeaves calls fn for every leaf in chain order with its entry
// count and slot capacity; the layout-metrics exporter feeds the
// node-occupancy histogram from it without exposing node internals.
func (t *Tree) VisitLeaves(fn func(entries, capacity int)) {
	n := t.root
	for !n.Leaf() {
		n = n.Children[0]
	}
	for ; n != nil; n = n.Next {
		fn(n.Len(), len(n.Keys))
	}
}
