package shard

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
)

// testEngineConfig is the per-shard core config the differential tests
// use: small tree order and cache so boundary machinery is exercised.
func testEngineConfig(mode core.Mode, pipeline bool) core.EngineConfig {
	return core.EngineConfig{
		Mode:          mode,
		Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		CacheCapacity: 16,
		Pipeline:      pipeline,
	}
}

// randomBatch draws n queries over [0, span).
func randomBatch(r *rand.Rand, n int, span int) []keys.Query {
	qs := make([]keys.Query, n)
	for i := range qs {
		k := keys.Key(r.Intn(span))
		switch r.Intn(3) {
		case 0:
			qs[i] = keys.Search(k)
		case 1:
			qs[i] = keys.Insert(k, keys.Value(r.Intn(10000)))
		default:
			qs[i] = keys.Delete(k)
		}
	}
	return keys.Number(qs)
}

// checkAgainst verifies rs matches want (both Reset to the same batch
// length) slot for slot.
func checkAgainst(t *testing.T, tag string, batch int, want, got *keys.ResultSet) {
	t.Helper()
	for i := int32(0); i < int32(want.Len()); i++ {
		w, wok := want.Get(i)
		g, gok := got.Get(i)
		if wok != gok || w != g {
			t.Fatalf("%s: batch %d idx %d: got %+v (%v), want %+v (%v)", tag, batch, i, g, gok, w, wok)
		}
	}
}

// TestShardedMatchesUnsharded runs identical batch sequences through
// the oracle, an unsharded engine, and sharded engines with N in
// {1, 2, 3, 8}, across all three engine modes, and demands byte-
// identical results and final stores.
func TestShardedMatchesUnsharded(t *testing.T) {
	const span = 256
	for _, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter} {
		for _, n := range []int{1, 2, 3, 8} {
			orc := oracle.New()
			plain, err := core.NewEngine(testEngineConfig(mode, false))
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := New(Config{
				Shards: n,
				Engine: testEngineConfig(mode, false),
				KeyMax: span - 1,
			})
			if err != nil {
				t.Fatal(err)
			}

			r := rand.New(rand.NewSource(int64(mode)*10 + int64(n)))
			for b := 0; b < 10; b++ {
				qs := randomBatch(r, 150, span)
				oq := append([]keys.Query(nil), qs...)
				pq := append([]keys.Query(nil), qs...)

				wantRS := keys.NewResultSet(len(qs))
				orc.ApplyAll(oq, wantRS)

				plainRS := keys.NewResultSet(len(qs))
				plain.ProcessBatch(pq, plainRS)
				checkAgainst(t, "unsharded-vs-oracle", b, wantRS, plainRS)

				shardRS := keys.NewResultSet(len(qs))
				sharded.ProcessBatch(qs, shardRS)
				checkAgainst(t, "sharded-vs-oracle", b, wantRS, shardRS)
			}

			oks, ovs := orc.Dump()
			sks, svs := sharded.Dump()
			if len(oks) != len(sks) {
				t.Fatalf("mode=%v n=%d: final store %d keys, want %d", mode, n, len(sks), len(oks))
			}
			for i := range oks {
				if oks[i] != sks[i] || ovs[i] != svs[i] {
					t.Fatalf("mode=%v n=%d: store[%d] = (%d,%d), want (%d,%d)",
						mode, n, i, sks[i], svs[i], oks[i], ovs[i])
				}
			}
			if got := sharded.Len(); got != orc.Len() {
				t.Fatalf("mode=%v n=%d: Len = %d, want %d", mode, n, got, orc.Len())
			}

			plain.Close()
			sharded.Close()
		}
	}
}

// TestShardedBoundaryKeys pins the exact-boundary behavior: keys equal
// to a split point are served correctly (by the shard above).
func TestShardedBoundaryKeys(t *testing.T) {
	bounds := []keys.Key{100, 200}
	e, err := New(Config{
		Shards:     3,
		Engine:     testEngineConfig(core.IntraInter, false),
		Boundaries: bounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	orc := oracle.New()
	// Every query hits a boundary key or its neighbors.
	var qs []keys.Query
	for _, k := range []keys.Key{99, 100, 101, 199, 200, 201} {
		qs = append(qs, keys.Insert(k, keys.Value(k)*2), keys.Search(k))
	}
	for _, k := range []keys.Key{100, 200} {
		qs = append(qs, keys.Delete(k), keys.Search(k))
	}
	keys.Number(qs)

	want := keys.NewResultSet(len(qs))
	orc.ApplyAll(append([]keys.Query(nil), qs...), want)
	got := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, got)
	checkAgainst(t, "boundary", 0, want, got)

	// Boundary keys must live in the shard above the split point.
	e.Flush()
	if _, found := e.Shard(1).Processor().Tree().Search(101); !found {
		t.Fatal("key 101 not in shard 1")
	}
	if _, found := e.Shard(2).Processor().Tree().Search(201); !found {
		t.Fatal("key 201 not in shard 2")
	}
}

// TestShardedPartialBatch is the regression test for the fast path: a
// batch whose queries all route to one shard must produce results at
// the original indices, with the caller's ResultSet untouched for
// non-search slots, whether or not other shards exist.
func TestShardedPartialBatch(t *testing.T) {
	e, err := New(Config{
		Shards:     4,
		Engine:     testEngineConfig(core.IntraInter, false),
		Boundaries: []keys.Key{100, 200, 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	orc := oracle.New()
	// All keys in [200, 300) → shard 2 only.
	qs := []keys.Query{
		keys.Insert(250, 1),
		keys.Search(250),
		keys.Insert(251, 2),
		keys.Delete(250),
		keys.Search(250),
		keys.Search(251),
	}
	keys.Number(qs)

	want := keys.NewResultSet(len(qs))
	orc.ApplyAll(append([]keys.Query(nil), qs...), want)

	rs := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, rs)
	checkAgainst(t, "partial", 0, want, rs)

	if rs.Answered() != 3 {
		t.Fatalf("Answered = %d, want 3", rs.Answered())
	}
	// Only shard 2 should have been routed to.
	st := e.ShardStats()
	if st.Routed[2] != int64(len(qs)) {
		t.Fatalf("Routed[2] = %d, want %d", st.Routed[2], len(qs))
	}
	for _, s := range []int{0, 1, 3} {
		if st.Routed[s] != 0 {
			t.Fatalf("Routed[%d] = %d, want 0", s, st.Routed[s])
		}
	}

	// A following spread batch must still merge correctly (the fast
	// path must not have corrupted splitter state).
	qs2 := []keys.Query{keys.Search(251), keys.Search(50), keys.Insert(150, 9), keys.Search(150)}
	keys.Number(qs2)
	want2 := keys.NewResultSet(len(qs2))
	orc.ApplyAll(append([]keys.Query(nil), qs2...), want2)
	rs2 := keys.NewResultSet(len(qs2))
	e.ProcessBatch(qs2, rs2)
	checkAgainst(t, "partial-then-spread", 1, want2, rs2)
}

// TestShardedStream checks ProcessStream (serial and pipelined shards)
// against batch-at-a-time oracle replay, including the lent-ResultSet
// path (Job.RS == nil).
func TestShardedStream(t *testing.T) {
	const span = 200
	for _, pipelined := range []bool{false, true} {
		for _, n := range []int{1, 3} {
			orc := oracle.New()
			e, err := New(Config{
				Shards: n,
				Engine: testEngineConfig(core.IntraInter, pipelined),
				KeyMax: span - 1,
			})
			if err != nil {
				t.Fatal(err)
			}

			r := rand.New(rand.NewSource(int64(n)*7 + 1))
			const nBatches = 15
			batches := make([][]keys.Query, nBatches)
			for i := range batches {
				batches[i] = randomBatch(r, 120, span)
			}

			in := make(chan *core.Job)
			go func() {
				for _, qs := range batches {
					in <- &core.Job{Qs: qs}
				}
				close(in)
			}()
			bi := 0
			e.ProcessStream(in, func(j *core.Job) {
				want := keys.NewResultSet(len(j.Qs))
				orc.ApplyAll(append([]keys.Query(nil), batches[bi]...), want)
				checkAgainst(t, "stream", bi, want, j.RS)
				bi++
			})
			if bi != nBatches {
				t.Fatalf("pipelined=%v n=%d: emitted %d of %d", pipelined, n, bi, nBatches)
			}

			oks, _ := orc.Dump()
			sks, _ := e.Dump()
			if len(oks) != len(sks) {
				t.Fatalf("pipelined=%v n=%d: final store %d keys, want %d", pipelined, n, len(sks), len(oks))
			}
			e.Close()
		}
	}
}

// TestRebalance verifies that Rebalance evens out a skewed partition,
// counts migrations, and leaves semantics untouched.
func TestRebalance(t *testing.T) {
	// KeyMax far above the real key range: everything initially lands
	// in shard 0.
	e, err := New(Config{
		Shards: 4,
		Engine: testEngineConfig(core.IntraInter, false),
		KeyMax: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	orc := oracle.New()
	var qs []keys.Query
	for k := 0; k < 400; k++ {
		qs = append(qs, keys.Insert(keys.Key(k), keys.Value(k)+7))
	}
	keys.Number(qs)
	orc.ApplyAll(append([]keys.Query(nil), qs...), nil)
	rs := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, rs)

	e.Flush() // the top-K cache may hold dirty entries
	if got := e.Shard(0).Processor().Tree().Len(); got != 400 {
		t.Fatalf("pre-rebalance shard 0 holds %d keys, want 400", got)
	}

	migrated, err := e.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	// 3/4 of the keys must move off shard 0, one adjacent-shard hop at
	// a time: 100 keys hop once (to shard 1), 100 twice, 100 three
	// times = 600 pair moves.
	if migrated != 600 {
		t.Fatalf("migrated = %d, want 600", migrated)
	}
	for s := 0; s < 4; s++ {
		if got := e.Shard(s).Processor().Tree().Len(); got != 100 {
			t.Fatalf("post-rebalance shard %d holds %d keys, want 100", s, got)
		}
	}
	if st := e.ShardStats(); st.Rebalances != 1 || st.Migrated != 600 {
		t.Fatalf("shard stats after rebalance: %v", st)
	}

	// Semantics unchanged: spot-check every key, then run a mixed batch
	// differentially.
	qs2 := make([]keys.Query, 0, 400)
	for k := 0; k < 400; k++ {
		qs2 = append(qs2, keys.Search(keys.Key(k)))
	}
	keys.Number(qs2)
	want := keys.NewResultSet(len(qs2))
	orc.ApplyAll(append([]keys.Query(nil), qs2...), want)
	got := keys.NewResultSet(len(qs2))
	e.ProcessBatch(qs2, got)
	checkAgainst(t, "post-rebalance", 0, want, got)

	r := rand.New(rand.NewSource(99))
	for b := 0; b < 5; b++ {
		qs := randomBatch(r, 100, 500)
		wantRS := keys.NewResultSet(len(qs))
		orc.ApplyAll(append([]keys.Query(nil), qs...), wantRS)
		gotRS := keys.NewResultSet(len(qs))
		e.ProcessBatch(qs, gotRS)
		checkAgainst(t, "post-rebalance-mixed", b, wantRS, gotRS)
	}

	// An empty engine rebalances to zero migrations without error.
	empty, err := New(Config{Shards: 3, Engine: testEngineConfig(core.Intra, false)})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if m, err := empty.Rebalance(); err != nil || m != 0 {
		t.Fatalf("empty Rebalance = %d, %v", m, err)
	}
}

// TestTrainRoutesPerShard verifies Warm/Train routes hot keys to the
// owning shard's cache.
func TestTrainRoutesPerShard(t *testing.T) {
	e, err := New(Config{
		Shards:     2,
		Engine:     testEngineConfig(core.IntraInter, false),
		Boundaries: []keys.Key{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	qs := []keys.Query{keys.Insert(10, 1), keys.Insert(110, 2)}
	keys.Number(qs)
	rs := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, rs)
	e.Flush()

	e.Train([]keys.Key{10, 110})

	// Searches on trained keys must be answered from cache (inferred
	// or hit) with correct values.
	qs2 := []keys.Query{keys.Search(10), keys.Search(110)}
	keys.Number(qs2)
	rs2 := keys.NewResultSet(len(qs2))
	e.ProcessBatch(qs2, rs2)
	if r, ok := rs2.Get(0); !ok || !r.Found || r.Value != 1 {
		t.Fatalf("Search(10) = %+v (%v)", r, ok)
	}
	if r, ok := rs2.Get(1); !ok || !r.Found || r.Value != 2 {
		t.Fatalf("Search(110) = %+v (%v)", r, ok)
	}
	if hits := e.Stats().CacheHits; hits != 2 {
		t.Fatalf("CacheHits = %d, want 2 (both keys trained)", hits)
	}
}

// TestNewFromTree restores a snapshot tree into a sharded engine and
// checks contents and scan order.
func TestNewFromTree(t *testing.T) {
	tree, err := btree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 300; k += 3 {
		tree.Insert(keys.Key(k), keys.Value(k*10))
	}
	e, err := NewFromTree(Config{
		Shards: 3,
		Engine: testEngineConfig(core.IntraInter, false),
		KeyMax: 299,
	}, tree)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if got := e.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
	var prev keys.Key
	count := 0
	e.Scan(func(k keys.Key, v keys.Value) bool {
		if count > 0 && k <= prev {
			t.Fatalf("Scan out of order: %d after %d", k, prev)
		}
		if v != keys.Value(k)*10 {
			t.Fatalf("Scan value for %d = %d", k, v)
		}
		prev = k
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("Scan visited %d, want 100", count)
	}

	// Early-terminating scan stops mid-way.
	count = 0
	e.Scan(func(k keys.Key, v keys.Value) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early Scan visited %d, want 7", count)
	}
}

// TestOneShardAdoptsTree pins the one-shard pass-through: NewFromTree
// adopts the restored tree itself, Save writes that live tree, and
// Stats is the shard engine's own block — no copies. Several shards
// Save one tree holding every pair.
func TestOneShardAdoptsTree(t *testing.T) {
	for _, n := range []int{1, 3} {
		tree, err := btree.New(8)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 300; k += 3 {
			tree.Insert(keys.Key(k), keys.Value(k*10))
		}
		e, err := NewFromTree(Config{Shards: n, Engine: testEngineConfig(core.IntraInter, false), KeyMax: 299}, tree)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		qs := keys.Number([]keys.Query{keys.Insert(1, 7), keys.Insert(1, 8), keys.Search(3)})
		e.ProcessBatch(qs, keys.NewResultSet(len(qs)))

		var saved bytes.Buffer
		if err := e.Save(&saved); err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			if e.Shard(0).Processor().Tree() != tree {
				t.Fatal("one shard copied the restored tree instead of adopting it")
			}
			if e.Stats() != e.Shard(0).Stats() {
				t.Fatal("one-shard Stats is not the shard engine's block")
			}
			var live bytes.Buffer
			if err := tree.Save(&live); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), live.Bytes()) {
				t.Fatal("one-shard Save differs from the live tree's snapshot")
			}
		}
		back, err := btree.Load(&saved, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantKs, wantVs := e.Dump()
		gotKs, gotVs := back.Dump()
		if !slices.Equal(gotKs, wantKs) || !slices.Equal(gotVs, wantVs) || len(gotKs) != 101 {
			t.Fatalf("shards=%d: saved %d pairs, store holds %d", n, len(gotKs), len(wantKs))
		}
	}
}

// TestShardStatsAggregation checks Stats() sums the participating
// shards' batch stats.
func TestShardStatsAggregation(t *testing.T) {
	e, err := New(Config{
		Shards:     2,
		Engine:     testEngineConfig(core.Intra, false),
		Boundaries: []keys.Key{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	qs := []keys.Query{
		keys.Insert(10, 1), keys.Search(10),
		keys.Insert(110, 2), keys.Search(110),
	}
	keys.Number(qs)
	rs := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, rs)

	st := e.Stats()
	if st.BatchSize != 4 {
		t.Fatalf("aggregated BatchSize = %d, want 4", st.BatchSize)
	}
	// Intra mode infers both searches (I;S per key collapses).
	if st.InferredReturns != 2 {
		t.Fatalf("aggregated InferredReturns = %d, want 2", st.InferredReturns)
	}
	sh := e.ShardStats()
	if sh.Routed[0] != 2 || sh.Routed[1] != 2 || sh.Batches != 1 {
		t.Fatalf("shard stats = %v", sh)
	}
	if sh.Imbalance() != 1 {
		t.Fatalf("Imbalance = %f, want 1", sh.Imbalance())
	}
}
