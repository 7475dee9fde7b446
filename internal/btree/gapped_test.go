package btree

import (
	"math/rand"
	"testing"

	"repro/internal/keys"
)

// TestGappedPropertyRandomOps is the gapped-layout property test: at
// the smallest and the default order, a long randomized insert/delete
// stream (with overwrites and misses) must keep every structural and
// slot invariant — Validate runs throughout, not just at the end — and
// the visible contents must match a map oracle exactly. The key space
// is sized to force plenty of leaf splits, gap exhaustion, and node
// merges at both orders.
func TestGappedPropertyRandomOps(t *testing.T) {
	for _, order := range []int{MinOrder, 8, DefaultOrder} {
		r := rand.New(rand.NewSource(int64(order)))
		tr := MustNew(order)
		oracle := map[keys.Key]keys.Value{}
		span := keys.Key(40 * order)
		ops := 6000
		if testing.Short() {
			ops = 1500
		}
		for i := 0; i < ops; i++ {
			k := keys.Key(r.Uint64()) % span
			if r.Intn(3) != 0 {
				v := keys.Value(i)
				tr.Insert(k, v)
				oracle[k] = v
			} else {
				got := tr.Delete(k)
				_, want := oracle[k]
				if got != want {
					t.Fatalf("order %d op %d: Delete(%d) = %v, want %v", order, i, k, got, want)
				}
				delete(oracle, k)
			}
			if i%500 == 0 {
				if err := tr.Validate(StrictFill); err != nil {
					t.Fatalf("order %d op %d: %v", order, i, err)
				}
			}
		}
		if err := tr.Validate(StrictFill); err != nil {
			t.Fatalf("order %d final: %v", order, err)
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("order %d: Len %d, oracle %d", order, tr.Len(), len(oracle))
		}
		ks, vs := tr.Dump()
		for i, k := range ks {
			if v, ok := oracle[k]; !ok || v != vs[i] {
				t.Fatalf("order %d: dump[%d] = (%d,%d) not in oracle", order, i, k, vs[i])
			}
		}
		// Searches for every live key and a sweep of misses.
		for k, v := range oracle {
			gv, ok := tr.Search(k)
			if !ok || gv != v {
				t.Fatalf("order %d: Search(%d) = %d,%v want %d", order, k, gv, ok, v)
			}
		}
		for k := span; k < span+10; k++ {
			if _, ok := tr.Search(k); ok {
				t.Fatalf("order %d: Search(%d) found phantom key", order, k)
			}
		}
	}
}

// TestGappedBulkLoadLeavesGaps checks the bulk loader's occupancy
// target: a bulk-loaded tree must leave free slots in its leaves (that
// is the point of the gapped layout).
func TestGappedBulkLoadLeavesGaps(t *testing.T) {
	n := 10000
	ks := make([]keys.Key, n)
	vs := make([]keys.Value, n)
	for i := range ks {
		ks[i] = keys.Key(2 * i)
		vs[i] = keys.Value(i)
	}
	tr, err := BulkLoad(DefaultOrder, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
	var totalFree int
	tr.VisitLeaves(func(entries, capacity int) {
		if capacity != DefaultOrder-1 {
			t.Fatalf("gapped leaf capacity %d, want %d", capacity, DefaultOrder-1)
		}
		totalFree += capacity - entries
	})
	if totalFree == 0 {
		t.Fatal("gapped bulk load produced no gaps")
	}
	// And inserts into the tree claim those gaps without
	// splitting: one odd key per ~leaf-sized span of even keys, so no
	// single leaf absorbs more inserts than it has gaps.
	before := countLeaves(tr)
	for i := 0; i < 50; i++ {
		tr.Insert(keys.Key(110*i+1), keys.Value(i))
	}
	if after := countLeaves(tr); after != before {
		t.Fatalf("gap-claiming inserts split leaves: %d -> %d", before, after)
	}
	if err := tr.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
}

func countLeaves(t *Tree) int {
	n := 0
	t.VisitLeaves(func(int, int) { n++ })
	return n
}
