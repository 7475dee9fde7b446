package btree

import (
	"strings"
	"testing"

	"repro/internal/keys"
)

// validateTree returns a strictly filled order-8 tree of 150 keys
// (0, 3, 6, ...; value = key) with three levels, bulk loaded so its
// leaves hold evenly spread gaps as well as sentinel tails.
func validateTree(t *testing.T) *Tree {
	t.Helper()
	ks := make([]keys.Key, 150)
	vs := make([]keys.Value, len(ks))
	for i := range ks {
		ks[i] = keys.Key(3 * i)
		vs[i] = keys.Value(3 * i)
	}
	tr, err := BulkLoad(8, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	if err := tr.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
	return tr
}

// leafAt returns the i-th leaf in chain order.
func leafAt(tr *Tree, i int) *Node {
	n := tr.root
	for !n.Leaf() {
		n = n.Children[0]
	}
	for ; i > 0; i-- {
		n = n.Next
	}
	return n
}

// repack rewrites leaf n to hold ks (value = key) with fresh gaps.
func repack(n *Node, ks ...keys.Key) {
	vs := make([]keys.Value, len(ks))
	for i, k := range ks {
		vs[i] = keys.Value(k)
	}
	PackLeafGapped(n, ks, vs)
}

// TestValidateRejectsEachViolation breaks one invariant at a time in an
// otherwise valid tree and demands that Validate reports exactly that
// violation. Validate is the structural oracle behind every
// differential test, so each of its checks must be able to fail.
func TestValidateRejectsEachViolation(t *testing.T) {
	cases := []struct {
		name    string
		policy  FillPolicy
		breakIt func(tr *Tree)
		want    string
	}{
		{"node without bitmap", StrictFill, func(tr *Tree) {
			// A dense node: entries packed, no presence bitmap.
			l := leafAt(tr, 1)
			ks, vs := l.AppendEntries(nil, nil)
			l.Keys, l.Vals, l.occ = ks, vs, nil
		}, "bitmap has 0 words"},
		{"bitmap bits past capacity", StrictFill, func(tr *Tree) {
			leafAt(tr, 1).occ[0] |= 1 << 10
		}, "bits past slot"},
		{"count differs from bitmap", StrictFill, func(tr *Tree) {
			leafAt(tr, 1).count++
		}, "occupied slots"},
		{"slot array unsorted", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 1)
			l.Keys[0] = l.Keys[len(l.Keys)-1]
		}, "slots not sorted"},
		{"duplicate entries", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 1)
			k := l.Keys[l.FirstSlot()]
			repack(l, k, k)
		}, "not strictly ascending"},
		{"gap not duplicating its anchor", StrictFill, func(tr *Tree) {
			// Three entries in seven slots land in slots 0, 2 and 4;
			// slot 1 is a gap anchored by slot 2.
			l := leafAt(tr, 1)
			ks, _ := l.AppendEntries(nil, nil)
			repack(l, ks[:3]...)
			l.Vals[1]++
		}, "does not duplicate anchor"},
		{"tail slot not sentinel", StrictFill, func(tr *Tree) {
			// Bulk-loaded leaves hold six entries in slots 0–5.
			l := leafAt(tr, 1)
			l.Vals[len(l.Vals)-1] = 1
		}, "want sentinel"},
		{"key below lower bound", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 1)
			ks, _ := l.AppendEntries(nil, nil)
			ks[0] = leafAt(tr, 0).Keys[leafAt(tr, 0).LastSlot()]
			repack(l, ks...)
		}, "below lower bound"},
		{"key not below upper bound", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 0)
			ks, _ := l.AppendEntries(nil, nil)
			ks[len(ks)-1] = leafAt(tr, 1).Keys[0]
			repack(l, ks...)
		}, "not below upper bound"},
		{"leaf values short", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 1)
			l.Vals = l.Vals[:len(l.Vals)-1]
		}, "val slots"},
		{"leaf of the wrong width", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 1)
			ks, vs := l.AppendEntries(nil, nil)
			wide := NewGappedLeaf(len(l.Keys) + 1)
			PackLeafGapped(wide, ks, vs)
			l.Keys, l.Vals, l.occ, l.count = wide.Keys, wide.Vals, wide.occ, wide.count
		}, "gapped leaf has 8 slots"},
		{"leaves at different depths", StrictFill, func(tr *Tree) {
			// Hoist the first internal child's first leaf into its place.
			tr.root.Children[0] = tr.root.Children[0].Children[0]
		}, "leaves at depths"},
		{"strict leaf underfull", StrictFill, func(tr *Tree) {
			l := leafAt(tr, 1)
			for l.Len() >= tr.minLeafEntries() {
				l.DeleteGapped(l.Keys[l.LastSlot()])
			}
		}, "leaf underfull"},
		{"relaxed empty leaf", RelaxedFill, func(tr *Tree) {
			repack(leafAt(tr, 1))
		}, "empty non-root leaf"},
		{"internal node with values", StrictFill, func(tr *Tree) {
			tr.root.Vals = make([]keys.Value, len(tr.root.Keys))
		}, "internal node with vals"},
		{"children not separators plus one", StrictFill, func(tr *Tree) {
			n := tr.root.Children[0]
			n.Children = append(n.Children, n.Children[0])
		}, "keys but"},
		{"internal node of the wrong width", StrictFill, func(tr *Tree) {
			tr.root.Keys = append(tr.root.Keys, SentinelKey)
		}, "gapped internal node has 8 slots"},
		{"separator slot free", StrictFill, func(tr *Tree) {
			// Move the root's last separator bit into its sentinel tail:
			// same count, still sorted, but the prefix has a hole.
			r := tr.root
			r.clearOcc(r.Len() - 1)
			r.setOcc(r.Len())
		}, "separator slot"},
		{"internal tail not sentinel", StrictFill, func(tr *Tree) {
			r := tr.root
			r.Keys[r.Len()] = r.Keys[r.Len()-1] + 1
		}, "tail slot"},
		{"internal node overfull", StrictFill, func(tr *Tree) {
			r := tr.root
			children := make([]*Node, tr.order+1)
			seps := make([]keys.Key, tr.order)
			for i := range children {
				children[i] = r.Children[0]
			}
			for i := range seps {
				seps[i] = keys.Key(i + 1)
			}
			r.Children = children
			SetInternalGapped(r, tr.sepCap(), seps, children)
		}, "internal node overfull"},
		{"strict internal underfull", StrictFill, func(tr *Tree) {
			n := tr.root.Children[0]
			for len(n.Children) >= tr.minChildren() {
				n.internalRemoveAt(len(n.Children) - 1)
			}
		}, "internal node underfull"},
		{"internal root with one child", RelaxedFill, func(tr *Tree) {
			for len(tr.root.Children) > 1 {
				tr.root.internalRemoveAt(len(tr.root.Children) - 1)
			}
		}, "internal root with 1 children"},
		{"nil root", StrictFill, func(tr *Tree) {
			tr.root = nil
		}, "nil root"},
		{"leaf chain skips a leaf", StrictFill, func(tr *Tree) {
			leafAt(tr, 0).Next = leafAt(tr, 2)
		}, "leaf chain diverges"},
		{"leaf chain ends early", StrictFill, func(tr *Tree) {
			leafAt(tr, 1).Next = nil
		}, "leaf chain has 2 leaves"},
		{"size not the entry count", StrictFill, func(tr *Tree) {
			tr.size++
		}, "leaf entries"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := validateTree(t)
			c.breakIt(tr)
			err := tr.Validate(c.policy)
			if err == nil {
				t.Fatal("violation not reported")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("reported %q, want the %q check", err, c.want)
			}
		})
	}
}
