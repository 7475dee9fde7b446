package palm

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
)

// leaf returns a gapped leaf of capacity 7 holding ks (value = key).
func leaf(ks ...keys.Key) *btree.Node {
	n := btree.NewGappedLeaf(7)
	vs := make([]keys.Value, len(ks))
	for i, k := range ks {
		vs[i] = keys.Value(k)
	}
	btree.PackLeafGapped(n, ks, vs)
	return n
}

// internal returns an internal node over children with its separators
// rebuilt at order 8.
func internal(children ...*btree.Node) *btree.Node {
	n := &btree.Node{Children: children}
	btree.PackInternalGapped(n, 8)
	return n
}

// seps returns an internal node's live separators.
func seps(n *btree.Node) []keys.Key { return n.Keys[:n.Len()] }

func TestRebuildSeps(t *testing.T) {
	n := internal(leaf(1, 2), leaf(5, 6), leaf(9))
	if got := seps(n); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("seps = %v, want [5 9]", got)
	}
}

func TestRebuildSepsDeepSubtree(t *testing.T) {
	n := internal(leaf(1), internal(leaf(42), leaf(60)))
	if got := seps(n); len(got) != 1 || got[0] != 42 {
		t.Fatalf("seps = %v, want [42] (min of deep subtree)", got)
	}
}

// TestMinKey checks the subtree minimum a separator is rebuilt from
// after the leaf's own minimum was deleted: the freed slot 0 then
// duplicates the successor, which must become the separator.
func TestMinKey(t *testing.T) {
	right := leaf(7, 9)
	right.DeleteGapped(7)
	n := internal(leaf(1), internal(right, leaf(60)))
	if got := seps(n); len(got) != 1 || got[0] != 9 {
		t.Fatalf("seps = %v, want [9] after deleting the subtree minimum", got)
	}
}

func TestSplitInternalMulti(t *testing.T) {
	// A node with 10 children at maxChildren 4 must split into 3
	// balanced pieces reusing the original node as piece 0.
	children := make([]*btree.Node, 10)
	for i := range children {
		children[i] = leaf(keys.Key(i * 10))
	}
	n := &btree.Node{Children: append([]*btree.Node(nil), children...)}
	btree.PackInternalGapped(n, 4)

	pieces := splitInternalMulti(n, 4)
	if len(pieces) != 3 {
		t.Fatalf("pieces = %d, want 3", len(pieces))
	}
	if pieces[0] != n {
		t.Fatal("piece 0 must reuse the node")
	}
	total := 0
	var all []*btree.Node
	for _, p := range pieces {
		if len(p.Children) > 4 || len(p.Children) == 0 {
			t.Fatalf("piece has %d children", len(p.Children))
		}
		if p.Len() != len(p.Children)-1 || len(p.Keys) != 3 {
			t.Fatalf("piece has %d separators in %d slots for %d children", p.Len(), len(p.Keys), len(p.Children))
		}
		for i, k := range seps(p) {
			if want := p.Children[i+1].Keys[0]; k != want {
				t.Fatalf("separator %d = %d, want %d", i, k, want)
			}
		}
		total += len(p.Children)
		all = append(all, p.Children...)
	}
	if total != 10 {
		t.Fatalf("children total %d", total)
	}
	for i, c := range all {
		if c != children[i] {
			t.Fatalf("child order broken at %d", i)
		}
	}
}

func TestFinalizeRootSingleReplacement(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	l := leaf(1)
	p.finalizeRoot(&modRequest{repl: []*btree.Node{l}})
	if p.Tree().Root() != l {
		t.Fatal("single replacement must become the root")
	}
}

func TestFinalizeRootMultiLevelGrowth(t *testing.T) {
	p, _ := New(Config{Order: 3, Workers: 1}, nil)
	defer p.Close()
	// 10 leaf pieces at order 3 require two new internal levels.
	pieces := make([]*btree.Node, 10)
	for i := range pieces {
		pieces[i] = btree.NewGappedLeaf(2)
		btree.PackLeafGapped(pieces[i], []keys.Key{keys.Key(i * 5)}, []keys.Value{keys.Value(i)})
		if i > 0 {
			pieces[i-1].Next = pieces[i]
		}
	}
	p.finalizeRoot(&modRequest{repl: pieces})
	p.Tree().AddSize(10)
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
	// 10 leaves at fanout <= 3 need ceil(10/3)=4, then 2, then 1
	// internal nodes: three internal levels above the leaves.
	if h := p.Tree().Height(); h != 4 {
		t.Fatalf("height = %d, want 4", h)
	}
	for i := 0; i < 10; i++ {
		if v, ok := p.Tree().Search(keys.Key(i * 5)); !ok || v != keys.Value(i) {
			t.Fatalf("Search(%d) = %d,%v", i*5, v, ok)
		}
	}
}

func TestFinalizeRootEmptiedInternalRoot(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	// Force an internal root, then simulate it emptying.
	batch := make([]keys.Query, 100)
	for i := range batch {
		batch[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(batch), keys.NewResultSet(len(batch)))
	if p.Tree().Root().Leaf() {
		t.Fatal("expected internal root after 100 inserts at order 4")
	}
	p.finalizeRoot(&modRequest{repl: nil})
	if !p.Tree().Root().Leaf() || p.Tree().Root().Len() != 0 {
		t.Fatal("emptied internal root must reset to an empty leaf")
	}
}

func TestRelinkLeavesRepairsChain(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	batch := make([]keys.Query, 200)
	for i := range batch {
		batch[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(batch), keys.NewResultSet(len(batch)))

	// Sabotage the chain, then repair.
	root := p.Tree().Root()
	first := root
	for !first.Leaf() {
		first = first.Children[0]
	}
	first.Next = nil
	p.relinkLeaves()
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatalf("after relink: %v", err)
	}
}

func TestRestructurePanicsOnMismatchedSlot(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	parent := internal(leaf(1), leaf(10))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slot must panic (internal invariant)")
		}
	}()
	w := &p.perW[0]
	p.applyToParent([]modRequest{{parent: parent, slot: 99, level: 0, path: &btree.Path{Nodes: []*btree.Node{parent}, Slots: []int{99}}}}, w)
}
