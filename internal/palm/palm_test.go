package palm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// runDifferential feeds the same query stream, split into batches, to a
// PALM processor and to the oracle, comparing search results after each
// batch and the full tree contents at the end.
func runDifferential(t *testing.T, cfg Config, batches [][]keys.Query) {
	t.Helper()
	runDifferentialWith(t, cfg, batches, (*Processor).ProcessBatch)
}

// runDifferentialWith is runDifferential with the batch entry point
// (ProcessBatch or ProcessBatchSorted) chosen by the caller.
func runDifferentialWith(t *testing.T, cfg Config, batches [][]keys.Query, process func(*Processor, []keys.Query, *keys.ResultSet)) {
	t.Helper()
	p, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o := oracle.New()

	for bi, batch := range batches {
		keys.Number(batch)
		want := keys.NewResultSet(len(batch))
		o.ApplyAll(batch, want)

		got := keys.NewResultSet(len(batch))
		process(p, batch, got)

		for i := 0; i < len(batch); i++ {
			w, wok := want.Get(int32(i))
			g, gok := got.Get(int32(i))
			if wok != gok || w != g {
				t.Fatalf("batch %d query %d: got %+v (%v), want %+v (%v)", bi, i, g, gok, w, wok)
			}
		}
		if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}

	gk, gv := p.Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("final dump sizes: got %d, want %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("final dump mismatch at %d: (%d,%d) vs (%d,%d)", i, gk[i], gv[i], wk[i], wv[i])
		}
	}
	if p.Tree().Len() != o.Len() {
		t.Fatalf("Len %d, oracle %d", p.Tree().Len(), o.Len())
	}
}

func randomBatches(r *rand.Rand, nBatches, batchSize, keyspace int, updateRatio float64) [][]keys.Query {
	out := make([][]keys.Query, nBatches)
	for b := range out {
		batch := make([]keys.Query, batchSize)
		for i := range batch {
			k := keys.Key(r.Intn(keyspace))
			if r.Float64() < updateRatio {
				if r.Intn(2) == 0 {
					batch[i] = keys.Insert(k, keys.Value(r.Uint64()))
				} else {
					batch[i] = keys.Delete(k)
				}
			} else {
				batch[i] = keys.Search(k)
			}
		}
		out[b] = batch
	}
	return out
}

func TestProcessBatchEmpty(t *testing.T) {
	p, err := New(Config{Order: 8, Workers: 2, LoadBalance: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rs := keys.NewResultSet(0)
	p.ProcessBatch(nil, rs)
	if p.Tree().Len() != 0 {
		t.Fatal("empty batch changed tree")
	}
}

func TestProcessBatchSingleInsert(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 2, LoadBalance: true}, nil)
	defer p.Close()
	batch := keys.Number([]keys.Query{keys.Insert(42, 99)})
	p.ProcessBatch(batch, keys.NewResultSet(1))
	if v, ok := p.Tree().Search(42); !ok || v != 99 {
		t.Fatalf("Search(42) = %d,%v", v, ok)
	}
}

func TestProcessBatchMassInsertSplits(t *testing.T) {
	for _, order := range []int{3, 4, 16} {
		for _, workers := range []int{1, 2, 5} {
			p, _ := New(Config{Order: order, Workers: workers, LoadBalance: true}, nil)
			n := 5000
			batch := make([]keys.Query, n)
			for i := range batch {
				batch[i] = keys.Insert(keys.Key(i), keys.Value(i*3))
			}
			// Shuffle so the batch is unsorted on arrival.
			r := rand.New(rand.NewSource(int64(order*10 + workers)))
			r.Shuffle(n, func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			keys.Number(batch)
			p.ProcessBatch(batch, keys.NewResultSet(n))
			if p.Tree().Len() != n {
				t.Fatalf("order=%d workers=%d: Len = %d, want %d", order, workers, p.Tree().Len(), n)
			}
			if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
				t.Fatalf("order=%d workers=%d: %v", order, workers, err)
			}
			for i := 0; i < n; i += 97 {
				if v, ok := p.Tree().Search(keys.Key(i)); !ok || v != keys.Value(i*3) {
					t.Fatalf("Search(%d) = %d,%v", i, v, ok)
				}
			}
			p.Close()
		}
	}
}

func TestProcessBatchMassDeleteEmptiesTree(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 3, LoadBalance: true}, nil)
	defer p.Close()
	n := 3000
	ins := make([]keys.Query, n)
	for i := range ins {
		ins[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(ins), keys.NewResultSet(n))

	del := make([]keys.Query, n)
	for i := range del {
		del[i] = keys.Delete(keys.Key(i))
	}
	p.ProcessBatch(keys.Number(del), keys.NewResultSet(n))
	if p.Tree().Len() != 0 {
		t.Fatalf("Len = %d, want 0", p.Tree().Len())
	}
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
	// Tree should be usable again afterwards.
	p.ProcessBatch(keys.Number([]keys.Query{keys.Insert(7, 7)}), keys.NewResultSet(1))
	if v, ok := p.Tree().Search(7); !ok || v != 7 {
		t.Fatalf("Search(7) = %d,%v", v, ok)
	}
}

func TestSameKeyOrderWithinBatch(t *testing.T) {
	// Mixed ops on one key: serial order must be preserved.
	p, _ := New(Config{Order: 4, Workers: 4, LoadBalance: true}, nil)
	defer p.Close()
	batch := keys.Number([]keys.Query{
		keys.Search(1),     // not found
		keys.Insert(1, 10), //
		keys.Search(1),     // 10
		keys.Insert(1, 20), //
		keys.Search(1),     // 20
		keys.Delete(1),     //
		keys.Search(1),     // not found
		keys.Insert(1, 30), //
		keys.Search(1),     // 30
	})
	rs := keys.NewResultSet(len(batch))
	p.ProcessBatch(batch, rs)
	checks := []struct {
		idx   int32
		found bool
		v     keys.Value
	}{{0, false, 0}, {2, true, 10}, {4, true, 20}, {6, false, 0}, {8, true, 30}}
	for _, c := range checks {
		r, ok := rs.Get(c.idx)
		if !ok {
			t.Fatalf("no result for %d", c.idx)
		}
		if r.Found != c.found || (c.found && r.Value != c.v) {
			t.Fatalf("idx %d: got %+v, want found=%v v=%d", c.idx, r, c.found, c.v)
		}
	}
}

func TestDifferentialRandomMixed(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		r := rand.New(rand.NewSource(int64(workers)))
		batches := randomBatches(r, 6, 4000, 800, 0.5)
		runDifferential(t, Config{Order: 8, Workers: workers, LoadBalance: true}, batches)
	}
}

func TestDifferentialSkewedKeys(t *testing.T) {
	// Heavy skew: most queries hit few keys, maximizing same-leaf and
	// same-key contention.
	r := rand.New(rand.NewSource(3))
	batches := make([][]keys.Query, 4)
	for b := range batches {
		batch := make([]keys.Query, 3000)
		for i := range batch {
			var k keys.Key
			if r.Intn(10) < 8 {
				k = keys.Key(r.Intn(5)) // 80% on 5 keys
			} else {
				k = keys.Key(r.Intn(1000))
			}
			switch r.Intn(3) {
			case 0:
				batch[i] = keys.Search(k)
			case 1:
				batch[i] = keys.Insert(k, keys.Value(r.Uint64()))
			default:
				batch[i] = keys.Delete(k)
			}
		}
		batches[b] = batch
	}
	runDifferential(t, Config{Order: 4, Workers: 4, LoadBalance: true}, batches)
}

func TestDifferentialDeleteHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var batches [][]keys.Query
	// Seed inserts, then delete-heavy batches to force empty leaves.
	seed := make([]keys.Query, 2000)
	for i := range seed {
		seed[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	batches = append(batches, seed)
	for b := 0; b < 3; b++ {
		batch := make([]keys.Query, 2000)
		for i := range batch {
			k := keys.Key(r.Intn(2000))
			if r.Intn(10) < 7 {
				batch[i] = keys.Delete(k)
			} else if r.Intn(2) == 0 {
				batch[i] = keys.Search(k)
			} else {
				batch[i] = keys.Insert(k, keys.Value(r.Uint64()))
			}
		}
		batches = append(batches, batch)
	}
	runDifferential(t, Config{Order: 4, Workers: 4, LoadBalance: true}, batches)
}

func TestDifferentialNoLoadBalance(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	batches := randomBatches(r, 4, 2500, 400, 0.4)
	runDifferential(t, Config{Order: 8, Workers: 4, LoadBalance: false}, batches)
}

func TestDifferentialPreSorted(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	batches := randomBatches(r, 3, 2000, 500, 0.5)
	for _, b := range batches {
		keys.Number(b)
		keys.SortByKey(b)
	}
	// Oracle must see the same (sorted) order the processor does.
	runDifferentialWith(t, Config{Order: 8, Workers: 4, LoadBalance: true}, batches, (*Processor).ProcessBatchSorted)
}

func TestFindAndAnswerSearches(t *testing.T) {
	p, _ := New(Config{Order: 8, Workers: 4, LoadBalance: true}, nil)
	defer p.Close()
	n := 2000
	ins := make([]keys.Query, n)
	for i := range ins {
		ins[i] = keys.Insert(keys.Key(i*2), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(ins), keys.NewResultSet(n))

	qs := make([]keys.Query, 500)
	for i := range qs {
		qs[i] = keys.Search(keys.Key(i * 7 % (2 * n)))
	}
	keys.Number(qs)
	keys.SortByKey(qs)
	rs := keys.NewResultSet(len(qs))
	p.FindAndAnswerSearches(qs, rs)
	for _, q := range qs {
		r, ok := rs.Get(q.Idx)
		if !ok {
			t.Fatalf("no result for %v", q)
		}
		wantFound := q.Key%2 == 0 && q.Key < keys.Key(2*n)
		if r.Found != wantFound {
			t.Fatalf("Search(%d): found=%v, want %v", q.Key, r.Found, wantFound)
		}
		if wantFound && r.Value != keys.Value(q.Key/2) {
			t.Fatalf("Search(%d) = %d, want %d", q.Key, r.Value, q.Key/2)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	p, _ := New(Config{Order: 8, Workers: 2, LoadBalance: true}, nil)
	defer p.Close()
	batch := randomBatches(rand.New(rand.NewSource(1)), 1, 3000, 500, 0.5)[0]
	keys.Number(batch)
	p.ProcessBatch(batch, keys.NewResultSet(len(batch)))
	st := p.Stats()
	if st.BatchSize != 3000 || st.RemainingQueries != 3000 {
		t.Fatalf("stats sizes: %+v", st)
	}
	var leafOps int64
	for _, v := range st.LeafOps {
		leafOps += v
	}
	if leafOps != 3000 {
		t.Fatalf("leaf ops = %d, want 3000", leafOps)
	}
	if st.Elapsed[0] == 0 && st.TotalElapsed() == 0 {
		t.Fatal("no stage timings recorded")
	}
}

// Property test: any random batch sequence leaves the tree equal to the
// oracle.
func TestDifferentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := New(Config{Order: 3 + r.Intn(8), Workers: 1 + r.Intn(6), LoadBalance: r.Intn(2) == 0}, nil)
		defer p.Close()
		o := oracle.New()
		for b := 0; b < 3; b++ {
			n := 200 + r.Intn(1500)
			batch := make([]keys.Query, n)
			for i := range batch {
				k := keys.Key(r.Intn(300))
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
			want := keys.NewResultSet(n)
			o.ApplyAll(batch, want)
			got := keys.NewResultSet(n)
			p.ProcessBatch(batch, got)
			for i := int32(0); i < int32(n); i++ {
				w, wok := want.Get(i)
				g, gok := got.Get(i)
				if wok != gok || w != g {
					return false
				}
			}
			if p.Tree().Validate(btree.RelaxedFill) != nil {
				return false
			}
		}
		gk, _ := p.Tree().Dump()
		wk, _ := o.Dump()
		if len(gk) != len(wk) {
			return false
		}
		for i := range gk {
			if gk[i] != wk[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitLeafMulti overflows a capacity-7 leaf with 25 inserts in
// one group: mergeApply must big-split it into balanced pieces that
// reuse the original node first, keep the leaf chain to the old
// successor, and hold every key in order.
func TestSplitLeafMulti(t *testing.T) {
	p, _ := New(Config{Order: 8, Workers: 1}, nil)
	defer p.Close()
	leaf := p.Tree().Root()
	tail := btree.NewGappedLeaf(7)
	btree.PackLeafGapped(tail, []keys.Key{100}, []keys.Value{100})
	leaf.Next = tail
	qs := make([]keys.Query, 25)
	for i := range qs {
		qs[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	keys.Number(qs)
	w := &p.perW[0]
	w.reqs = w.reqs[:0]
	p.evalGroup(&leafGroup{leaf: leaf, lo: 0, hi: len(qs)}, qs, keys.NewResultSet(len(qs)), w, false)
	if len(w.reqs) != 1 {
		t.Fatalf("requests = %d, want 1", len(w.reqs))
	}
	pieces := w.reqs[0].repl
	if len(pieces) != 5 { // ceil(25 / (7*7/8))
		t.Fatalf("pieces = %d, want 5", len(pieces))
	}
	if pieces[0] != leaf {
		t.Fatal("first piece must reuse the original node")
	}
	// Chain and contents.
	var got []keys.Key
	for n := pieces[0]; n != tail; n = n.Next {
		if n.Len() > 7 || n.Len() == 0 {
			t.Fatalf("piece size %d out of range", n.Len())
		}
		got, _ = n.AppendEntries(got, nil)
	}
	if len(got) != 25 {
		t.Fatalf("total keys %d, want 25", len(got))
	}
	for i, k := range got {
		if k != keys.Key(i) {
			t.Fatalf("keys out of order: %v", got)
		}
	}
}

func TestAssignGroupsCoversAllGroups(t *testing.T) {
	p, _ := New(Config{Order: 8, Workers: 4, LoadBalance: true}, nil)
	defer p.Close()
	// Synthesize skewed groups: one giant, many tiny.
	p.groups = p.groups[:0]
	p.groups = append(p.groups, leafGroup{lo: 0, hi: 1000})
	for i := 0; i < 20; i++ {
		p.groups = append(p.groups, leafGroup{lo: 1000 + i, hi: 1001 + i})
	}
	assign := p.assignGroups()
	prev := 0
	for t2, a := range assign {
		if a[0] != prev {
			t.Fatalf("worker %d starts at %d, want %d", t2, a[0], prev)
		}
		prev = a[1]
	}
	if prev != len(p.groups) {
		t.Fatalf("assignment covers %d groups, want %d", prev, len(p.groups))
	}
}

func BenchmarkPalmMixedBatch(b *testing.B) {
	p, _ := New(Config{Order: btree.DefaultOrder, Workers: 0, LoadBalance: true}, nil)
	defer p.Close()
	r := rand.New(rand.NewSource(1))
	const n = 1 << 17
	seed := make([]keys.Query, n)
	for i := range seed {
		seed[i] = keys.Insert(keys.Key(r.Uint64()%(4*n)), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(seed), keys.NewResultSet(n))
	batch := make([]keys.Query, n)
	rs := keys.NewResultSet(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range batch {
			k := keys.Key(r.Uint64() % (4 * n))
			switch r.Intn(4) {
			case 0:
				batch[j] = keys.Insert(k, keys.Value(j))
			case 1:
				batch[j] = keys.Delete(k)
			default:
				batch[j] = keys.Search(k)
			}
		}
		keys.Number(batch)
		rs.Reset(n)
		b.StartTimer()
		p.ProcessBatch(batch, rs)
	}
	b.SetBytes(n)
}
