package palm

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/btree"
	"repro/internal/keys"
)

// TestSerialDeleteOnRelaxedTree pins the interaction between PALM's
// relaxed batched deletes and the serial delete path. A batch that
// deletes all but one leaf's keys leaves the tree with single-child
// internal spines (legal under RelaxedFill); serially draining the
// surviving keys — exactly what shard migration does — must then cope
// with underfull nodes that have no sibling to borrow from or merge
// with. This crashed with an index-out-of-range before relaxed.go.
func TestSerialDeleteOnRelaxedTree(t *testing.T) {
	t.Run("gapped", func(t *testing.T) {
		for _, order := range []int{3, 4, 5, 8} {
			t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
				p, err := New(Config{Order: order, Workers: 1}, bsp.NewPool(1))
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()

				const n = 512
				ins := make([]keys.Query, 0, n)
				for k := 0; k < n; k++ {
					ins = append(ins, keys.Insert(keys.Key(k), keys.Value(k)))
				}
				keys.Number(ins)
				p.ProcessBatch(ins, keys.NewResultSet(len(ins)))

				// One batch deletes everything above the lowest few
				// keys: the batched restructure removes emptied
				// leaves under the relaxed invariant and can leave
				// single-child internal nodes on the right spine.
				del := make([]keys.Query, 0, n)
				for k := 3; k < n; k++ {
					del = append(del, keys.Delete(keys.Key(k)))
				}
				keys.Number(del)
				p.ProcessBatch(del, keys.NewResultSet(len(del)))

				tr := p.Tree()
				if err := tr.Validate(btree.RelaxedFill); err != nil {
					t.Fatalf("relaxed tree invalid before serial drain: %v", err)
				}
				// Serially drain the survivors, low to high, the way
				// a shard migration empties a donor tree.
				for k := 0; k < 3; k++ {
					if !tr.Delete(keys.Key(k)) {
						t.Fatalf("key %d missing before drain finished", k)
					}
					if err := tr.Validate(btree.RelaxedFill); err != nil {
						t.Fatalf("after deleting %d: %v", k, err)
					}
				}
				if tr.Len() != 0 {
					t.Fatalf("%d keys left after full drain", tr.Len())
				}
				if _, _, ok := tr.Max(); ok {
					t.Fatal("Max found a pair in a drained tree")
				}
				// The drained tree must still be fully usable.
				tr.Insert(42, 99)
				if v, ok := tr.Search(42); !ok || v != 99 {
					t.Fatalf("insert after drain lost the pair: (%v,%v)", v, ok)
				}
			})
		}
	})
}
