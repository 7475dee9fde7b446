package palm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// TestFinderMatchesFreshDescent is the path-reuse property test: over
// random tree shapes (empty root-leaf, single-leaf, serially grown,
// bulk-loaded) and random probe sequences (ascending, as Stage 1 sees,
// and adversarially unordered), finder.find must return exactly the
// leaf — and record exactly the path — that a fresh root descent does.
func TestFinderMatchesFreshDescent(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		order := []int{3, 4, 5, 8, 64}[r.Intn(5)]
		n := []int{0, 1, 2, order - 1, 30, 500, 4000}[r.Intn(7)]
		span := keys.Key(3*n + 10)

		var tree *btree.Tree
		if r.Intn(2) == 0 {
			// Serially grown tree (strict fill invariants).
			tree = btree.MustNew(order)
			for i := 0; i < n; i++ {
				tree.Insert(keys.Key(r.Uint64())%span, keys.Value(i))
			}
		} else {
			// Bulk-loaded tree (distinct leaf fill pattern).
			ks := make([]keys.Key, 0, n)
			seen := map[keys.Key]bool{}
			for len(ks) < n {
				k := keys.Key(r.Uint64()) % span
				if !seen[k] {
					seen[k] = true
					ks = append(ks, k)
				}
			}
			sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
			vs := make([]keys.Value, len(ks))
			var err error
			tree, err = btree.BulkLoad(order, ks, vs)
			if err != nil {
				t.Fatal(err)
			}
		}

		p := NewWithTree(Config{Order: order, Workers: 1}, tree, nil)
		var f finder
		f.reset(p.tree)

		probes := make([]keys.Key, 300)
		for i := range probes {
			probes[i] = keys.Key(r.Uint64()) % (span + 4)
		}
		if r.Intn(2) == 0 {
			// The Stage-1 ascending regime.
			sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		}
		var fresh btree.Path
		for _, k := range probes {
			got := f.find(k)
			want := tree.FindLeaf(k, &fresh)
			if got != want {
				t.Fatalf("order=%d n=%d: find(%d) returned wrong leaf", order, n, k)
			}
			if f.path.Len() != fresh.Len() {
				t.Fatalf("order=%d n=%d: find(%d) path depth %d, want %d",
					order, n, k, f.path.Len(), fresh.Len())
			}
			for l := 0; l < fresh.Len(); l++ {
				if f.path.Nodes[l] != fresh.Nodes[l] || f.path.Slots[l] != fresh.Slots[l] {
					t.Fatalf("order=%d n=%d: find(%d) path diverges at level %d", order, n, k, l)
				}
			}
		}
		p.Close()
	}
}

// TestFinderResetAfterRestructure checks the Stage boundaries the
// finder's correctness argument rests on: after a batch restructures the
// tree, the next batch's descents (post-reset) are still exact.
func TestFinderResetAfterRestructure(t *testing.T) {
	p, _ := New(Config{Order: 3, Workers: 1}, nil)
	defer p.Close()
	r := rand.New(rand.NewSource(5))
	for b := 0; b < 20; b++ {
		batch := make([]keys.Query, 120)
		for i := range batch {
			k := keys.Key(r.Intn(400))
			if r.Intn(2) == 0 {
				batch[i] = keys.Insert(k, keys.Value(i))
			} else {
				batch[i] = keys.Delete(k)
			}
		}
		p.ProcessBatch(keys.Number(batch), keys.NewResultSet(len(batch)))

		f := &p.perW[0].finder
		f.reset(p.tree)
		var fresh btree.Path
		for k := keys.Key(0); k < 410; k += 3 {
			if got, want := f.find(k), p.tree.FindLeaf(k, &fresh); got != want {
				t.Fatalf("batch %d: stale finder after restructure at key %d", b, k)
			}
		}
	}
}

// TestMergeApplyValidates drives merge-based leaf application across
// every order and several leaf fill modes (empty tree, serially grown,
// bulk-loaded full leaves) and checks btree.Validate plus oracle
// equivalence after every batch.
func TestMergeApplyValidates(t *testing.T) {
	for _, order := range []int{3, 4, 5, 8, 64} {
		for _, preload := range []int{0, 1, 700} {
			r := rand.New(rand.NewSource(int64(order*1000 + preload)))
			o := oracle.New()

			var tree *btree.Tree
			if preload > 0 && r.Intn(2) == 0 {
				ks := make([]keys.Key, preload)
				vs := make([]keys.Value, preload)
				seed := make([]keys.Query, preload)
				for i := range ks {
					ks[i] = keys.Key(i * 3)
					vs[i] = keys.Value(i)
					seed[i] = keys.Insert(ks[i], vs[i])
				}
				var err error
				tree, err = btree.BulkLoad(order, ks, vs)
				if err != nil {
					t.Fatal(err)
				}
				o.ApplyAll(keys.Number(seed), keys.NewResultSet(preload))
			} else {
				tree = btree.MustNew(order)
				seed := make([]keys.Query, preload)
				for i := 0; i < preload; i++ {
					tree.Insert(keys.Key(i*3), keys.Value(i))
					seed[i] = keys.Insert(keys.Key(i*3), keys.Value(i))
				}
				o.ApplyAll(keys.Number(seed), keys.NewResultSet(preload))
			}

			p := NewWithTree(Config{Order: order, Workers: 4, LoadBalance: true}, tree, nil)
			for b := 0; b < 4; b++ {
				batch := make([]keys.Query, 900)
				for i := range batch {
					k := keys.Key(r.Intn(3*preload + 200))
					switch r.Intn(3) {
					case 0:
						batch[i] = keys.Search(k)
					case 1:
						batch[i] = keys.Insert(k, keys.Value(r.Uint64()))
					default:
						batch[i] = keys.Delete(k)
					}
				}
				keys.Number(batch)
				want := keys.NewResultSet(len(batch))
				o.ApplyAll(batch, want)
				got := keys.NewResultSet(len(batch))
				p.ProcessBatch(batch, got)
				for i := int32(0); i < int32(len(batch)); i++ {
					w, wok := want.Get(i)
					g, gok := got.Get(i)
					if wok != gok || w != g {
						t.Fatalf("order=%d preload=%d batch %d query %d: %+v vs %+v", order, preload, b, i, g, w)
					}
				}
				if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
					t.Fatalf("order=%d preload=%d batch %d: %v", order, preload, b, err)
				}
			}
			gk, gv := p.Tree().Dump()
			wk, wv := o.Dump()
			if len(gk) != len(wk) {
				t.Fatalf("order=%d preload=%d: dump %d vs %d entries", order, preload, len(gk), len(wk))
			}
			for i := range gk {
				if gk[i] != wk[i] || gv[i] != wv[i] {
					t.Fatalf("order=%d preload=%d: dump mismatch at %d", order, preload, i)
				}
			}
			p.Close()
		}
	}
}

// TestKernelAblationMatrix runs the oracle differential through
// ProcessBatch at order 4 — small nodes, so a few hundred keys build a
// deep tree whose batches split and merge leaves and internal nodes
// alike. Results and the final store must match the oracle exactly.
// The subtest names the one kernel configuration the tree has: every
// kernel on, over the gapped node layout.
func TestKernelAblationMatrix(t *testing.T) {
	t.Run("pathreuse=true/branchless=true/mergeapply=true/gapped=true", func(t *testing.T) {
		r := rand.New(rand.NewSource(77))
		runDifferential(t, Config{Order: 4, Workers: 4, LoadBalance: true}, randomBatches(r, 3, 1500, 300, 0.5))
	})
}

// TestKernelAblationTransformed exercises the QTrans-shaped entry points
// (ProcessTransformed, FindAndAnswerSearches) against the oracle. The
// order-4 arm builds deep trees of narrow nodes. The DefaultOrder arm
// runs the same entry points over full-width nodes, where every probe
// takes the unrolled width-63 kernels (searchGE63/searchGT63). It
// starts from a root holding exactly DefaultOrder children, so the
// first batch's probes past the root's last separator take the final
// step of searchGT63; its batches alternate between dense ones, whose
// leaf groups of eight or more mutations hand off to mergeApply, and
// sparse ones, whose few mutations per leaf claim gaps or append past
// a leaf's last entry one query at a time.
func TestKernelAblationTransformed(t *testing.T) {
	for _, arm := range []struct {
		order    int
		span     keys.Key
		sparse   int  // key stride bound of odd batches (3 = dense)
		fullRoot bool // preload until the root has order children
	}{
		{order: 4, span: 400, sparse: 3},
		{order: btree.DefaultOrder, span: 12000, sparse: 40, fullRoot: true},
	} {
		t.Run(fmt.Sprintf("order=%d", arm.order), func(t *testing.T) {
			tree := btree.MustNew(arm.order)
			o := oracle.New()
			// Ascending inserts split the rightmost leaf whenever it
			// fills, adding one root child per split.
			for k := keys.Key(1); arm.fullRoot && len(tree.Root().Children) < arm.order; k += 2 {
				tree.Insert(k, keys.Value(k))
				o.Apply(keys.Insert(k, keys.Value(k)), nil)
			}
			p := NewWithTree(Config{Order: arm.order, Workers: 4, LoadBalance: true}, tree, nil)
			defer p.Close()
			span := arm.span
			r := rand.New(rand.NewSource(13))

			for b := 0; b < 5; b++ {
				// A QTrans-reduced batch: per distinct key at most one
				// representative search, preceding the key's defining
				// queries; keys ascending (stable key-sorted by build).
				stride := 3
				if b%2 == 1 {
					stride = arm.sparse
				}
				var batch []keys.Query
				for k := keys.Key(0); k < span; k += keys.Key(1 + r.Intn(stride)) {
					if r.Intn(3) == 0 {
						batch = append(batch, keys.Search(k))
					}
					for d := r.Intn(3); d > 0; d-- {
						if r.Intn(2) == 0 {
							batch = append(batch, keys.Insert(k, keys.Value(r.Uint64())))
						} else {
							batch = append(batch, keys.Delete(k))
						}
					}
				}
				keys.Number(batch)
				want := keys.NewResultSet(len(batch))
				o.ApplyAll(batch, want)
				got := keys.NewResultSet(len(batch))
				p.ProcessTransformed(batch, got)
				for i := int32(0); i < int32(len(batch)); i++ {
					w, wok := want.Get(i)
					g, gok := got.Get(i)
					if wok != gok || w != g {
						t.Fatalf("batch %d query %d: %+v (%v) vs %+v (%v)", b, i, g, gok, w, wok)
					}
				}
				if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}

			// Search-only fast path against the final store.
			qs := make([]keys.Query, 600)
			for i := range qs {
				qs[i] = keys.Search(keys.Key(r.Intn(int(span) + 20)))
			}
			keys.Number(qs)
			keys.SortByKey(qs)
			want := keys.NewResultSet(len(qs))
			o.ApplyAll(qs, want)
			got := keys.NewResultSet(len(qs))
			p.FindAndAnswerSearches(qs, got)
			for i := int32(0); i < int32(len(qs)); i++ {
				w, wok := want.Get(i)
				g, gok := got.Get(i)
				if wok != gok || w != g {
					t.Fatalf("fast path query %d: %+v (%v) vs %+v (%v)", i, g, gok, w, wok)
				}
			}

			gk, gv := p.Tree().Dump()
			wk, wv := o.Dump()
			if len(gk) != len(wk) {
				t.Fatalf("dump %d vs %d entries", len(gk), len(wk))
			}
			for i := range gk {
				if gk[i] != wk[i] || gv[i] != wv[i] {
					t.Fatalf("dump mismatch at %d", i)
				}
			}
		})
	}
}

// TestFenceHitsCounted checks the path-reuse stat: a dense pre-sorted
// batch against a deep tree must resolve mostly by fence checks.
func TestFenceHitsCounted(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	n := 4000
	seed := make([]keys.Query, n)
	for i := range seed {
		seed[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(seed), keys.NewResultSet(n))

	// Stride-1 searches guarantee consecutive queries share a leaf for
	// any leaf fill >= 2, independent of the split target.
	batch := make([]keys.Query, 2000)
	for i := range batch {
		batch[i] = keys.Search(keys.Key(i))
	}
	keys.Number(batch)
	p.ProcessBatchSorted(batch, keys.NewResultSet(len(batch)))
	if p.Stats().FenceHits == 0 {
		t.Fatal("dense sorted batch recorded no fence hits")
	}
}
