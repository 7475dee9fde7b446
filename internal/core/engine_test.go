package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
)

// engineDifferential runs the same batches through an Engine and the
// oracle, comparing every search result and the final store. For
// IntraInter engines the cache is flushed before the final comparison.
func engineDifferential(t *testing.T, cfg EngineConfig, batches [][]keys.Query) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	o := oracle.New()

	for bi, batch := range batches {
		keys.Number(batch)
		want := keys.NewResultSet(len(batch))
		o.ApplyAll(batch, want)

		got := keys.NewResultSet(len(batch))
		eng.ProcessBatch(batch, got)

		for i := int32(0); i < int32(len(batch)); i++ {
			w, wok := want.Get(i)
			g, gok := got.Get(i)
			if wok != gok || w != g {
				t.Fatalf("mode=%v batch %d idx %d: got %+v (%v), want %+v (%v)",
					cfg.Mode, bi, i, g, gok, w, wok)
			}
		}
		if err := eng.Processor().Tree().Validate(btree.RelaxedFill); err != nil {
			t.Fatalf("mode=%v batch %d: %v", cfg.Mode, bi, err)
		}
	}

	eng.Flush()
	gk, gv := eng.Processor().Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("mode=%v: final sizes %d vs %d", cfg.Mode, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("mode=%v: final mismatch at %d: (%d,%d) vs (%d,%d)",
				cfg.Mode, i, gk[i], gv[i], wk[i], wv[i])
		}
	}
}

func skewedBatches(r *rand.Rand, nBatches, size, hotKeys, coldKeys int, updateRatio float64) [][]keys.Query {
	out := make([][]keys.Query, nBatches)
	for b := range out {
		batch := make([]keys.Query, size)
		for i := range batch {
			var k keys.Key
			if r.Intn(10) < 8 {
				k = keys.Key(r.Intn(hotKeys))
			} else {
				k = keys.Key(hotKeys + r.Intn(coldKeys))
			}
			if r.Float64() < updateRatio {
				if r.Intn(2) == 0 {
					batch[i] = keys.Insert(k, keys.Value(r.Intn(1_000_000)))
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

func TestEngineOriginalDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	batches := skewedBatches(r, 5, 3000, 20, 2000, 0.5)
	engineDifferential(t, EngineConfig{
		Mode: Original,
		Palm: palm.Config{Order: 8, Workers: 4, LoadBalance: true},
	}, batches)
}

func TestEngineIntraDifferential(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		r := rand.New(rand.NewSource(int64(workers)))
		batches := skewedBatches(r, 5, 3000, 20, 2000, 0.5)
		engineDifferential(t, EngineConfig{
			Mode: Intra,
			Palm: palm.Config{Order: 8, Workers: workers, LoadBalance: true},
		}, batches)
	}
}

func TestEngineIntraInterDifferential(t *testing.T) {
	for _, capacity := range []int{1, 4, 64, 4096} {
		r := rand.New(rand.NewSource(int64(capacity)))
		batches := skewedBatches(r, 6, 3000, 20, 2000, 0.5)
		engineDifferential(t, EngineConfig{
			Mode:          IntraInter,
			Palm:          palm.Config{Order: 8, Workers: 4, LoadBalance: true},
			CacheCapacity: capacity,
		}, batches)
	}
}

// TestEngineIntraInterPolicies runs the replacement policy (LRU, served
// by CLOCK) at a capacity small enough that every batch evicts.
func TestEngineIntraInterPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	batches := skewedBatches(r, 4, 2000, 10, 500, 0.6)
	engineDifferential(t, EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 4, LoadBalance: true},
		CacheCapacity: 8,
	}, batches)
}

func TestEngineSearchOnlyBatches(t *testing.T) {
	// U-0 workload: the QTrans fast path answers everything in Stage 1.
	r := rand.New(rand.NewSource(7))
	seed := make([]keys.Query, 2000)
	for i := range seed {
		seed[i] = keys.Insert(keys.Key(i), keys.Value(i*5))
	}
	searches := make([]keys.Query, 3000)
	for i := range searches {
		searches[i] = keys.Search(keys.Key(r.Intn(4000)))
	}
	engineDifferential(t, EngineConfig{
		Mode: Intra,
		Palm: palm.Config{Order: 16, Workers: 4, LoadBalance: true},
	}, [][]keys.Query{seed, searches})
}

func TestEngineDeleteHeavyBatches(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	seed := make([]keys.Query, 3000)
	for i := range seed {
		seed[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	batches := [][]keys.Query{seed}
	for b := 0; b < 3; b++ {
		batch := make([]keys.Query, 3000)
		for i := range batch {
			k := keys.Key(r.Intn(3000))
			switch r.Intn(10) {
			case 0, 1:
				batch[i] = keys.Search(k)
			case 2:
				batch[i] = keys.Insert(k, keys.Value(r.Intn(100)))
			default:
				batch[i] = keys.Delete(k)
			}
		}
		batches = append(batches, batch)
	}
	engineDifferential(t, EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 4, Workers: 4, LoadBalance: true},
		CacheCapacity: 32,
	}, batches)
}

func TestEngineStatsReduction(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode: Intra,
		Palm: palm.Config{Order: 8, Workers: 2, LoadBalance: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// 1000 queries on 10 keys: massive redundancy, so the reduction
	// ratio must be high and inferred answers plentiful.
	r := rand.New(rand.NewSource(3))
	batch := make([]keys.Query, 1000)
	for i := range batch {
		k := keys.Key(r.Intn(10))
		if r.Intn(2) == 0 {
			batch[i] = keys.Search(k)
		} else {
			batch[i] = keys.Insert(k, keys.Value(i))
		}
	}
	keys.Number(batch)
	rs := keys.NewResultSet(len(batch))
	eng.ProcessBatch(batch, rs)
	st := eng.Stats()
	if st.RemainingQueries > 20 { // <= 2 per key
		t.Fatalf("remaining = %d, want <= 20", st.RemainingQueries)
	}
	if st.ReductionRatio() < 0.9 {
		t.Fatalf("reduction = %f, want > 0.9", st.ReductionRatio())
	}
	if st.InferredReturns == 0 {
		t.Fatal("no inferred returns recorded")
	}
}

func TestEngineCacheStats(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		CacheCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Two batches over the same two keys: the second batch must hit.
	b1 := keys.Number([]keys.Query{keys.Insert(1, 1), keys.Insert(2, 2)})
	eng.ProcessBatch(b1, keys.NewResultSet(len(b1)))
	b2 := keys.Number([]keys.Query{keys.Search(1), keys.Search(2)})
	rs := keys.NewResultSet(len(b2))
	eng.ProcessBatch(b2, rs)
	if eng.Stats().CacheHits != 2 {
		t.Fatalf("CacheHits = %d, want 2", eng.Stats().CacheHits)
	}
	for i, want := range []keys.Value{1, 2} {
		res, ok := rs.Get(int32(i))
		if !ok || !res.Found || res.Value != want {
			t.Fatalf("search %d: %+v, %v", i, res, ok)
		}
	}
	// Tree has not seen the cached keys yet (write-back).
	if eng.Processor().Tree().Len() != 0 {
		t.Fatalf("tree Len = %d before Flush, want 0", eng.Processor().Tree().Len())
	}
	eng.Flush()
	if eng.Processor().Tree().Len() != 2 {
		t.Fatalf("tree Len = %d after Flush, want 2", eng.Processor().Tree().Len())
	}
}

func TestEngineEvictionFlushOrdering(t *testing.T) {
	// Capacity-1 cache: inserting key A then key B evicts A's dirty
	// entry; a later search of A in the same batch must still see A's
	// value (the flushed-this-batch path).
	eng, err := NewEngine(EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 1, LoadBalance: true},
		CacheCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	b1 := keys.Number([]keys.Query{keys.Insert(1, 11)})
	eng.ProcessBatch(b1, keys.NewResultSet(len(b1)))
	// Key 2's insert evicts key 1 (processed in key order: key 1's
	// search comes first while 1 is still resident... so use key 0 to
	// force the eviction before the search).
	b2 := keys.Number([]keys.Query{keys.Insert(0, 22), keys.Search(1)})
	rs := keys.NewResultSet(len(b2))
	eng.ProcessBatch(b2, rs)
	res, ok := rs.Get(1)
	if !ok || !res.Found || res.Value != 11 {
		t.Fatalf("search after eviction: %+v, %v; want 11", res, ok)
	}
	eng.Flush()
	for k, want := range map[keys.Key]keys.Value{0: 22, 1: 11} {
		v, found := eng.Processor().Tree().Search(k)
		if !found || v != want {
			t.Fatalf("tree[%d] = %d,%v; want %d", k, v, found, want)
		}
	}
}

func TestEngineTrainPrePopulates(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		CacheCapacity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	seed := keys.Number([]keys.Query{keys.Insert(1, 11), keys.Insert(2, 22)})
	eng.ProcessBatch(seed, keys.NewResultSet(len(seed)))
	eng.Flush() // make the tree authoritative

	// Train on one already-resident key and one absent key.
	eng.Train([]keys.Key{1, 99})

	b := keys.Number([]keys.Query{keys.Search(1), keys.Search(99)})
	rs := keys.NewResultSet(len(b))
	eng.ProcessBatch(b, rs)
	if eng.Stats().CacheHits < 2 {
		t.Fatalf("trained keys missed: hits=%d", eng.Stats().CacheHits)
	}
	if r, _ := rs.Get(0); !r.Found || r.Value != 11 {
		t.Fatalf("search trained key = %+v", r)
	}
	if r, _ := rs.Get(1); r.Found {
		t.Fatalf("search trained-absent key = %+v", r)
	}
	// Idempotent: training resident keys is a no-op.
	eng.Train([]keys.Key{1, 99})

	// A non-caching engine ignores Train.
	eng2, _ := NewEngine(EngineConfig{Mode: Intra, Palm: palm.Config{Order: 8, Workers: 1}})
	defer eng2.Close()
	eng2.Train([]keys.Key{1})
}

func TestEngineTrainEvictionFlushesDirty(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 1, LoadBalance: true},
		CacheCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The insert is absorbed into the capacity-1 cache (dirty).
	b := keys.Number([]keys.Query{keys.Insert(5, 55)})
	eng.ProcessBatch(b, keys.NewResultSet(len(b)))
	if eng.Processor().Tree().Len() != 0 {
		t.Fatal("insert should be cache-resident, not in tree")
	}
	// Training another key evicts the dirty entry, which must be
	// flushed to the tree immediately.
	eng.Train([]keys.Key{7})
	if v, ok := eng.Processor().Tree().Search(5); !ok || v != 55 {
		t.Fatalf("evicted dirty entry not flushed: %d,%v", v, ok)
	}
}

func TestEngineModeString(t *testing.T) {
	if Original.String() != "org" || Intra.String() != "intra" || IntraInter.String() != "inter" {
		t.Fatal("mode names changed; figure output depends on them")
	}
	if Mode(99).String() != "mode?" {
		t.Fatal("unknown mode formatting")
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	eng, _ := NewEngine(EngineConfig{Mode: Intra, Palm: palm.Config{Order: 8, Workers: 2}})
	defer eng.Close()
	eng.ProcessBatch(nil, keys.NewResultSet(0))
	if eng.Stats().BatchSize != 0 {
		t.Fatal("empty batch stats")
	}
}

// Property: all three modes agree with the oracle on arbitrary batch
// streams.
func TestEngineModesProperty(t *testing.T) {
	f := func(seed int64, modeRaw uint8) bool {
		mode := Mode(int(modeRaw) % 4)
		r := rand.New(rand.NewSource(seed))
		cfg := EngineConfig{
			Mode:          mode,
			Palm:          palm.Config{Order: 3 + r.Intn(10), Workers: 1 + r.Intn(5), LoadBalance: true},
			CacheCapacity: 1 + r.Intn(64),
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			return false
		}
		defer eng.Close()
		o := oracle.New()
		for b := 0; b < 3; b++ {
			n := 100 + r.Intn(1200)
			batch := make([]keys.Query, n)
			for i := range batch {
				k := keys.Key(r.Intn(150))
				switch r.Intn(3) {
				case 0:
					batch[i] = keys.Search(k)
				case 1:
					batch[i] = keys.Insert(k, keys.Value(r.Uint32()))
				default:
					batch[i] = keys.Delete(k)
				}
			}
			keys.Number(batch)
			want := keys.NewResultSet(n)
			o.ApplyAll(batch, want)
			got := keys.NewResultSet(n)
			eng.ProcessBatch(batch, got)
			for i := int32(0); i < int32(n); i++ {
				w, wok := want.Get(i)
				g, gok := got.Get(i)
				if wok != gok || w != g {
					return false
				}
			}
		}
		eng.Flush()
		gk, gv := eng.Processor().Tree().Dump()
		wk, wv := o.Dump()
		if len(gk) != len(wk) {
			return false
		}
		for i := range gk {
			if gk[i] != wk[i] || gv[i] != wv[i] {
				return false
			}
		}
		return eng.Processor().Tree().Validate(btree.RelaxedFill) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
