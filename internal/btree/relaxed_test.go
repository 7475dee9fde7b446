package btree

import (
	"testing"

	"repro/internal/keys"
)

// buildSingleChildSpine hand-assembles the relaxed shape PALM's batched
// deletes can leave behind: root -> [internal{full leaf} | internal
// whose ONLY child is a small leaf]. RelaxedFill permits it; the serial
// delete path crashed on it before relaxed.go.
func buildSingleChildSpine(t *testing.T) *Tree {
	t.Helper()
	// At order 5 a non-root leaf's minimum fill is two entries, so the
	// one-entry lonely leaf is underfull and deletes from it reach the
	// sibling-less paths of relaxed.go.
	order := 5
	mk := func(ks []keys.Key, vs []keys.Value) *Node {
		n := NewGappedLeaf(order - 1)
		PackLeafGapped(n, ks, vs)
		return n
	}
	l1 := mk([]keys.Key{1, 2, 3}, []keys.Value{10, 20, 30})
	l2 := mk([]keys.Key{50}, []keys.Value{500})
	l1.Next = l2

	left := &Node{Children: []*Node{l1}}
	spine := &Node{Children: []*Node{l2}}
	root := &Node{Children: []*Node{left, spine}}
	SetInternalGapped(left, order-1, nil, left.Children)
	SetInternalGapped(spine, order-1, nil, spine.Children)
	SetInternalGapped(root, order-1, []keys.Key{50}, root.Children)
	tr := &Tree{root: root, order: order, size: 4}
	if err := tr.Validate(RelaxedFill); err != nil {
		t.Fatalf("constructed relaxed shape invalid: %v", err)
	}
	return tr
}

// TestDeleteLonelyLeaf drains the leaf under a single-child spine: the
// delete must unlink the emptied leaf, collapse the emptied spine, and
// leave a fully consistent tree (chain, Max, subsequent inserts).
func TestDeleteLonelyLeaf(t *testing.T) {
	t.Run("gapped", func(t *testing.T) {
		tr := buildSingleChildSpine(t)
		if !tr.Delete(50) {
			t.Fatal("key 50 not found")
		}
		if err := tr.Validate(RelaxedFill); err != nil {
			t.Fatalf("after lonely-leaf delete: %v", err)
		}
		if tr.Len() != 3 {
			t.Fatalf("Len = %d, want 3", tr.Len())
		}
		if k, _, ok := tr.Max(); !ok || k != 3 {
			t.Fatalf("Max = (%d,%v), want (3,true)", k, ok)
		}
		var got []keys.Key
		tr.Scan(func(k keys.Key, v keys.Value) bool {
			got = append(got, k)
			return true
		})
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			t.Fatalf("Scan = %v, want [1 2 3]", got)
		}
		// The collapsed tree keeps working.
		tr.Insert(50, 501)
		if v, ok := tr.Search(50); !ok || v != 501 {
			t.Fatalf("reinsert lost pair: (%v,%v)", v, ok)
		}
	})
}

// TestDeleteUnderfullNoSibling pins the leave-underfull case: when the
// lonely leaf does not empty, it legally stays below minimum fill and
// every query path still works.
func TestDeleteUnderfullNoSibling(t *testing.T) {
	t.Run("gapped", func(t *testing.T) {
		tr := buildSingleChildSpine(t)
		tr.Insert(60, 600) // lonely leaf now {50, 60}
		if !tr.Delete(60) {
			t.Fatal("key 60 not found")
		}
		// The leaf is back to one entry — underfull, sibling-less,
		// and legal; nothing collapsed.
		if err := tr.Validate(RelaxedFill); err != nil {
			t.Fatalf("after underfull delete: %v", err)
		}
		if v, ok := tr.Search(50); !ok || v != 500 {
			t.Fatalf("Search(50) = (%v,%v), want (500,true)", v, ok)
		}
		if k, _, ok := tr.Max(); !ok || k != 50 {
			t.Fatalf("Max = (%d,%v), want (50,true)", k, ok)
		}
	})
}
