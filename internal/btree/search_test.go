package btree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
)

// refGE/refGT are the sort.Search reference semantics the branchless
// kernels must reproduce exactly.
func refGE(ks []keys.Key, k keys.Key) int {
	return sort.Search(len(ks), func(i int) bool { return ks[i] >= k })
}

func refGT(ks []keys.Key, k keys.Key) int {
	return sort.Search(len(ks), func(i int) bool { return k < ks[i] })
}

// TestSearchKernelsExhaustive checks every slice length up to 18, every
// gap/duplicate pattern over a small key alphabet, and every probe key
// (below, between, equal, above) against the reference.
func TestSearchKernelsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 18; n++ {
		for trial := 0; trial < 200; trial++ {
			ks := make([]keys.Key, n)
			v := keys.Key(r.Intn(3))
			for i := range ks {
				v += keys.Key(1 + r.Intn(3)) // strictly ascending with gaps
				ks[i] = v
			}
			for probe := keys.Key(0); probe <= v+2; probe++ {
				if got, want := SearchGE(ks, probe), refGE(ks, probe); got != want {
					t.Fatalf("SearchGE(%v, %d) = %d, want %d", ks, probe, got, want)
				}
				if got, want := SearchGT(ks, probe), refGT(ks, probe); got != want {
					t.Fatalf("SearchGT(%v, %d) = %d, want %d", ks, probe, got, want)
				}
			}
		}
	}
}

// TestSearchKernelsRandomWide probes wide nodes (up to the default
// order) with random 64-bit keys, including the extremes.
func TestSearchKernelsRandomWide(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(DefaultOrder + 1)
		ks := make([]keys.Key, 0, n)
		seen := map[keys.Key]bool{}
		for len(ks) < n {
			k := keys.Key(r.Uint64())
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		probes := []keys.Key{0, ^keys.Key(0)}
		for i := 0; i < 32; i++ {
			probes = append(probes, keys.Key(r.Uint64()))
		}
		for _, k := range ks {
			probes = append(probes, k, k+1, k-1)
		}
		for _, probe := range probes {
			if got, want := SearchGE(ks, probe), refGE(ks, probe); got != want {
				t.Fatalf("SearchGE(len %d, %d) = %d, want %d", n, probe, got, want)
			}
			if got, want := SearchGT(ks, probe), refGT(ks, probe); got != want {
				t.Fatalf("SearchGT(len %d, %d) = %d, want %d", n, probe, got, want)
			}
		}
	}
}

// BenchmarkSearchKernels pits the branchless probes against the
// closure-based sort.Search forms on a default-order node with random
// probe keys (the branch-hostile case).
func BenchmarkSearchKernels(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ks := make([]keys.Key, DefaultOrder-1)
	for i := range ks {
		ks[i] = keys.Key(i * 7)
	}
	probes := make([]keys.Key, 1024)
	for i := range probes {
		probes[i] = keys.Key(r.Intn(7 * len(ks)))
	}
	var sink int
	b.Run("branchless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += SearchGE(ks, probes[i&1023])
		}
	})
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += refGE(ks, probes[i&1023])
		}
	})
	_ = sink
}

// TestLeafFind checks the leaf-probe kernel against the map truth on a
// random gapped leaf.
func TestLeafFind(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var lk []keys.Key
	var lv []keys.Value
	truth := map[keys.Key]keys.Value{}
	for i := 0; i < 40; i++ {
		k := keys.Key(r.Intn(100))
		if _, dup := truth[k]; dup {
			continue
		}
		truth[k] = keys.Value(i)
	}
	for k := keys.Key(0); k < 100; k++ {
		if v, ok := truth[k]; ok {
			lk = append(lk, k)
			lv = append(lv, v)
		}
	}
	leaf := NewGappedLeaf(2 * len(lk))
	PackLeafGapped(leaf, lk, lv)
	for k := keys.Key(0); k < 110; k++ {
		wantV, wantOK := truth[k]
		if v, ok := LeafFind(leaf, k); ok != wantOK || (ok && v != wantV) {
			t.Fatalf("LeafFind(%d) = %d,%v want %d,%v", k, v, ok, wantV, wantOK)
		}
	}
}

// fullRootTree grows a DefaultOrder tree by ascending odd keys until
// its root holds exactly DefaultOrder children, so the root's 63-slot
// separator array has no sentinel tail and a probe at or past its last
// separator takes the final narrowing step of searchGT63. It returns
// the tree, the inserted keys and that last separator.
func fullRootTree(t *testing.T) (*Tree, []keys.Key, keys.Key) {
	t.Helper()
	tr := MustNew(DefaultOrder)
	var ks []keys.Key
	for k := keys.Key(1); len(tr.Root().Children) < DefaultOrder; k += 2 {
		tr.Insert(k, keys.Value(k))
		ks = append(ks, k)
	}
	root := tr.Root()
	if root.Len() != len(root.Keys) || len(root.Keys) != DefaultOrder-1 {
		t.Fatalf("root holds %d separators in %d slots", root.Len(), len(root.Keys))
	}
	return tr, ks, root.Keys[len(root.Keys)-1]
}

// TestFullRootProbes runs the serial tree's operations through a root
// whose separator array is full: every key at or past the last
// separator must route to the last child.
func TestFullRootProbes(t *testing.T) {
	t.Run("FindLeaf", func(t *testing.T) {
		tr, ks, last := fullRootTree(t)
		var path Path
		for _, k := range append(ks, ks[len(ks)-1]+1, SentinelKey) {
			tr.FindLeaf(k, &path)
			if want := k >= last; (path.Slots[0] == DefaultOrder-1) != want {
				t.Fatalf("FindLeaf(%d) took root child %d (last separator %d)", k, path.Slots[0], last)
			}
		}
	})
	t.Run("Search", func(t *testing.T) {
		tr, ks, _ := fullRootTree(t)
		for _, k := range ks {
			if v, ok := tr.Search(k); !ok || v != keys.Value(k) {
				t.Fatalf("Search(%d) = (%d,%v)", k, v, ok)
			}
			if _, ok := tr.Search(k + 1); ok {
				t.Fatalf("Search(%d) found an absent key", k+1)
			}
		}
	})
	t.Run("Insert", func(t *testing.T) {
		tr, ks, last := fullRootTree(t)
		for k := last - 1; k <= ks[len(ks)-1]+1; k += 2 {
			tr.Insert(k, keys.Value(k))
		}
		if err := tr.Validate(StrictFill); err != nil {
			t.Fatal(err)
		}
		for k := last - 1; k <= ks[len(ks)-1]+1; k++ {
			if v, ok := tr.Search(k); !ok || v != keys.Value(k) {
				t.Fatalf("Search(%d) = (%d,%v) after inserts past the last separator", k, v, ok)
			}
		}
	})
	t.Run("Delete", func(t *testing.T) {
		tr, ks, last := fullRootTree(t)
		for _, k := range ks {
			if k >= last && !tr.Delete(k) {
				t.Fatalf("Delete(%d) missed a present key", k)
			}
		}
		if err := tr.Validate(StrictFill); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("Predecessor", func(t *testing.T) {
		tr, ks, last := fullRootTree(t)
		for i := 1; i < len(ks); i++ {
			if ks[i] < last {
				continue
			}
			if k, _, ok := tr.Predecessor(ks[i]); !ok || k != ks[i-1] {
				t.Fatalf("Predecessor(%d) = (%d,%v), want %d", ks[i], k, ok, ks[i-1])
			}
		}
	})
}
