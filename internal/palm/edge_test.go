package palm

import (
	"math"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/stats"
)

func TestSingleKeyBatch(t *testing.T) {
	// Every query on one key: one group, one thread does all the work,
	// same-key order must hold exactly.
	p, _ := New(Config{Order: 4, Workers: 8, LoadBalance: true}, nil)
	defer p.Close()
	n := 999
	batch := make([]keys.Query, n)
	for i := range batch {
		switch i % 3 {
		case 0:
			batch[i] = keys.Insert(5, keys.Value(i))
		case 1:
			batch[i] = keys.Search(5)
		default:
			batch[i] = keys.Delete(5)
		}
	}
	keys.Number(batch)
	rs := keys.NewResultSet(n)
	p.ProcessBatch(batch, rs)
	for i := 1; i < n; i += 3 {
		r, ok := rs.Get(int32(i))
		if !ok {
			t.Fatalf("no result at %d", i)
		}
		// Search at i follows insert at i-1.
		if !r.Found || r.Value != keys.Value(i-1) {
			t.Fatalf("search %d = %+v, want value %d", i, r, i-1)
		}
	}
	// Sequence ends with ... I(n-3), S, D -> key absent.
	if _, ok := p.Tree().Search(5); ok {
		t.Fatal("key should have been deleted by the final delete")
	}
}

func TestMoreWorkersThanQueries(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 16, LoadBalance: true}, nil)
	defer p.Close()
	batch := keys.Number([]keys.Query{
		keys.Insert(1, 1), keys.Insert(2, 2), keys.Search(1),
	})
	rs := keys.NewResultSet(len(batch))
	p.ProcessBatch(batch, rs)
	if r, ok := rs.Get(2); !ok || !r.Found || r.Value != 1 {
		t.Fatalf("search = %+v, %v", r, ok)
	}
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
}

func TestExtremeKeyValues(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 2, LoadBalance: true}, nil)
	defer p.Close()
	maxK := keys.Key(math.MaxUint64)
	batch := keys.Number([]keys.Query{
		keys.Insert(0, 10),
		keys.Insert(maxK, 20),
		keys.Insert(maxK-1, 30),
		keys.Search(0),
		keys.Search(maxK),
	})
	rs := keys.NewResultSet(len(batch))
	p.ProcessBatch(batch, rs)
	if r, _ := rs.Get(3); !r.Found || r.Value != 10 {
		t.Fatalf("Search(0) = %+v", r)
	}
	if r, _ := rs.Get(4); !r.Found || r.Value != 20 {
		t.Fatalf("Search(max) = %+v", r)
	}
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedBatchesGrowAndShrink(t *testing.T) {
	// Alternating grow/shrink cycles stress split+remove interplay and
	// scratch reuse across batches.
	p, _ := New(Config{Order: 3, Workers: 3, LoadBalance: true}, nil)
	defer p.Close()
	const n = 1500
	for cycle := 0; cycle < 4; cycle++ {
		grow := make([]keys.Query, n)
		for i := range grow {
			grow[i] = keys.Insert(keys.Key(i), keys.Value(cycle*10+i))
		}
		p.ProcessBatch(keys.Number(grow), keys.NewResultSet(n))
		if p.Tree().Len() != n {
			t.Fatalf("cycle %d: Len = %d after grow", cycle, p.Tree().Len())
		}
		shrink := make([]keys.Query, n/2)
		for i := range shrink {
			shrink[i] = keys.Delete(keys.Key(i * 2))
		}
		p.ProcessBatch(keys.Number(shrink), keys.NewResultSet(n/2))
		if p.Tree().Len() != n/2 {
			t.Fatalf("cycle %d: Len = %d after shrink", cycle, p.Tree().Len())
		}
		if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

func TestProcessTransformedEmptyAndSearchOnly(t *testing.T) {
	p, _ := New(Config{Order: 8, Workers: 2, LoadBalance: true}, nil)
	defer p.Close()
	p.ProcessTransformed(nil, keys.NewResultSet(0))

	seed := keys.Number([]keys.Query{keys.Insert(1, 11)})
	p.ProcessBatch(seed, keys.NewResultSet(1))

	// Search-only transformed batch: stages 2/3 must not run.
	qs := keys.Number([]keys.Query{keys.Search(1), keys.Search(2)})
	keys.SortByKey(qs)
	rs := keys.NewResultSet(len(qs))
	p.ProcessTransformed(qs, rs)
	if r, _ := rs.Get(0); !r.Found || r.Value != 11 {
		t.Fatalf("transformed search = %+v", r)
	}
	if r, ok := rs.Get(1); !ok || r.Found {
		t.Fatalf("transformed miss = %+v, %v", r, ok)
	}
	st := p.Stats()
	if st.Elapsed[stats.StageEvaluate]+st.Elapsed[stats.StageModify] != 0 {
		t.Fatal("stage 2/3 ran for a search-only transformed batch")
	}
}

// TestMergeApplyEmptiesRootLeaf: a group of eight or more deletes takes
// the gapped merge kernel, and when it deletes every key of a tree
// that is one root leaf, the leaf must come out empty — the root has
// no parent to unlink it.
func TestMergeApplyEmptiesRootLeaf(t *testing.T) {
	p, err := New(Config{Workers: 1, LoadBalance: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ProcessBatch(keys.Number([]keys.Query{keys.Insert(0, 7)}), keys.NewResultSet(1))
	var qs []keys.Query
	for k := keys.Key(0); k < 8; k++ {
		qs = append(qs, keys.Delete(k))
	}
	p.ProcessTransformed(keys.Number(qs), keys.NewResultSet(len(qs)))
	if ks, _ := p.Tree().Dump(); len(ks) != 0 || p.Tree().Len() != 0 {
		t.Fatalf("tree holds %v (Len %d) after deleting its only key", ks, p.Tree().Len())
	}
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
}
