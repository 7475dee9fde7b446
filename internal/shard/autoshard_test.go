package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// seedPairs inserts keys 0, step, 2·step, … < span through one batch
// and mirrors them into the oracle.
func seedPairs(t *testing.T, e *Engine, orc *oracle.Oracle, span, step int) {
	t.Helper()
	var qs []keys.Query
	for k := 0; k < span; k += step {
		qs = append(qs, keys.Insert(keys.Key(k), keys.Value(k)+3))
	}
	keys.Number(qs)
	orc.ApplyAll(append([]keys.Query(nil), qs...), nil)
	rs := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, rs)
}

// injectHeat records key n times into the engine's heat map, bypassing
// batches (which would also decay), so policy tests control the
// histogram exactly.
func injectHeat(e *Engine, k keys.Key, n int) {
	for i := 0; i < n; i++ {
		e.heat.record(k)
	}
}

// coolHeat decays the heat map to zero, clearing residue left by
// seeding batches so injectHeat controls the histogram exactly.
func coolHeat(e *Engine) {
	for i := 0; i < 256; i++ {
		e.heat.decay()
	}
}

// checkStore asserts the engine's contents equal the oracle's.
func checkStore(t *testing.T, tag string, e *Engine, orc *oracle.Oracle) {
	t.Helper()
	oks, ovs := orc.Dump()
	ks, vs := e.Dump()
	if len(ks) != len(oks) {
		t.Fatalf("%s: store holds %d keys, want %d", tag, len(ks), len(oks))
	}
	for i := range oks {
		if ks[i] != oks[i] || vs[i] != ovs[i] {
			t.Fatalf("%s: store[%d] = (%d,%d), want (%d,%d)", tag, i, ks[i], vs[i], oks[i], ovs[i])
		}
	}
}

// TestAutoshardDeadbandHoldsLayout pins the layout's stability when
// heat sits inside one histogram bucket: no boundary move can divide
// it (every traffic-weighted target lies within one bucket width of
// its bound), so the controller reports the imbalance and holds —
// never adding shards that would carry no traffic.
func TestAutoshardDeadbandHoldsLayout(t *testing.T) {
	e, err := New(Config{
		Shards:     2,
		Engine:     testEngineConfig(core.IntraInter, false),
		KeyMax:     1<<16 - 1,
		Boundaries: []keys.Key{16000},
		Autoshard:  AutoshardConfig{Enabled: true, Interval: -1, Buckets: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	orc := oracle.New()
	seedPairs(t, e, orc, 1<<16, 64)
	coolHeat(e)

	// Bucket width is 16384; all heat in bucket 0, bound at 16000 →
	// shard 0 carries ~98% of interpolated heat, and the equal-heat
	// target (8192) is within one bucket of the bound.
	for i := 0; i < 40; i++ {
		injectHeat(e, 1000, 1000)
		r := e.AutoshardStep()
		if r.Moved != 0 || r.Idle {
			t.Fatalf("step %d acted: %+v", i, r)
		}
		if r.Imbalance <= 1.5 {
			t.Fatalf("step %d imbalance %.3f, want > 1.5", i, r.Imbalance)
		}
		if n, b := e.Shards(), e.Bounds(); n != 2 || len(b) != 1 || b[0] != 16000 {
			t.Fatalf("step %d: shards=%d bounds=%v, want 2 and [16000]", i, n, b)
		}
	}
	if st := e.ShardStats(); st.Moves != 0 || st.Migrated != 0 {
		t.Fatalf("move counters = %d/%d, want 0/0", st.Moves, st.Migrated)
	}
	checkStore(t, "deadband", e, orc)
}

// TestAutoshardMovesTowardTraffic pins the boundary-move policy: heat
// concentrated on the low quarter of the key space pulls the 2-shard
// boundary down to the traffic-weighted position in bounded MaxStep
// slices, leaving the stored pairs untouched.
func TestAutoshardMovesTowardTraffic(t *testing.T) {
	e, err := New(Config{
		Shards: 2,
		Engine: testEngineConfig(core.IntraInter, false),
		KeyMax: 1<<16 - 1,
		Autoshard: AutoshardConfig{
			Enabled: true, Interval: -1,
			Buckets: 16, MaxStep: 100, MinHeat: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	orc := oracle.New()
	seedPairs(t, e, orc, 1<<16, 64) // 1024 pairs
	coolHeat(e)

	// Heat spread over buckets 0–3 (keys < 16384); the equal-heat
	// target is ~8191, far below the initial bound at 32768.
	for b := 0; b < 4; b++ {
		injectHeat(e, keys.Key(b*4096+100), 250)
	}

	before := e.Bounds()[0]
	var steps, migrated int
	for i := 0; i < 20; i++ {
		r := e.AutoshardStep()
		migrated += r.Moved
		steps++
		if r.Moved == 0 && i > 0 {
			break
		}
	}
	after := e.Bounds()[0]
	if after >= 16384 {
		t.Fatalf("bound did not reach the hot region: %d -> %d", before, after)
	}
	// 384 stored pairs sit in [8192, 32768); at 100 pairs/step the move
	// must have taken several bounded slices, not one big one.
	if migrated < 380 || steps < 4 {
		t.Fatalf("migrated %d pairs in %d steps, want ≥380 in ≥4", migrated, steps)
	}
	if st := e.ShardStats(); st.Moves < 4 || st.Migrated != int64(migrated) {
		t.Fatalf("move counters = %d/%d, want ≥4/%d", st.Moves, st.Migrated, migrated)
	}
	checkStore(t, "post-moves", e, orc)

	// Semantics stay intact across the moved boundary, scans included.
	qs := keys.Number([]keys.Query{
		keys.Search(after - 64),
		keys.Search(after),
		keys.Scan(after-200, after+200, 0),
	})
	want := keys.NewResultSet(len(qs))
	orc.ApplyAll(append([]keys.Query(nil), qs...), want)
	got := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, got)
	diffResults(t, "post-move-batch", 0, want, got, len(qs))
}

// TestAutoshardOffAllocIdentical is the alloc half of the zero-cost-off
// contract (mirroring the metrics-off guard): per-batch allocations
// with Autoshard disabled must equal those with the heat path live —
// heat recording and decay are allocation-free, and the off state adds
// only a nil check.
func TestAutoshardOffAllocIdentical(t *testing.T) {
	mk := func(auto AutoshardConfig) *Engine {
		e, err := New(Config{
			Shards:    4,
			Engine:    testEngineConfig(core.IntraInter, false),
			KeyMax:    1<<16 - 1,
			Autoshard: auto,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	off := mk(AutoshardConfig{})
	defer off.Close()
	// MinHeat keeps the controller idle; Interval < 0 keeps it manual.
	// The per-batch heat record/decay path still runs in full.
	on := mk(AutoshardConfig{Enabled: true, Interval: -1, MinHeat: 1 << 62})
	defer on.Close()

	var qs []keys.Query
	for k := 0; k < 1<<16; k += 256 {
		qs = append(qs, keys.Insert(keys.Key(k), keys.Value(k)))
		qs = append(qs, keys.Search(keys.Key(k)))
	}
	keys.Number(qs)
	rs := keys.NewResultSet(len(qs))

	measure := func(e *Engine) float64 {
		for i := 0; i < 3; i++ { // warm lazily-grown buffers
			rs.Reset(len(qs))
			e.ProcessBatch(qs, rs)
		}
		return testing.AllocsPerRun(20, func() {
			rs.Reset(len(qs))
			e.ProcessBatch(qs, rs)
		})
	}
	aOff, aOn := measure(off), measure(on)
	if aOn > aOff {
		t.Errorf("autoshard heat path allocates %.1f/batch vs %.1f off — want no extra", aOn, aOff)
	}
}

// FuzzAutoshard is the differential property for the whole controller:
// ANY batch sequence interleaved with controller steps — with a
// histogram fine and a migration slice small enough that boundary
// moves fire constantly — stays byte-identical to the oracle, scans
// straddling freshly moved boundaries included, across shard counts
// and pipelined execution; and the shard count never changes.
func FuzzAutoshard(f *testing.F) {
	// Mixed ops with batch breaks (steps run between batches).
	f.Add([]byte{1, 10, 1, 30, 1, 50, 0xFF, 0, 0, 10, 0, 30, 2, 50, 0xFF, 0, 0, 10, 0})
	// Hot hammering of one key range.
	f.Add([]byte{1, 5, 0, 5, 0, 6, 0, 5, 0, 6, 0, 5, 0xFF, 0, 0, 5, 0, 6, 0, 5, 0, 6})
	// Straddling scans after moves.
	f.Add([]byte{1, 10, 1, 30, 1, 50, 63, 0, 0xFF, 0, 63, 0, 4, 40, 63, 0})
	// All traffic on one key, across batches: heat no move can divide.
	f.Add([]byte{1, 7, 0, 7, 2, 7, 0, 7, 0xFF, 0, 0, 7, 1, 7, 0, 7, 0xFF, 0, 0, 7, 3, 7, 0, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := decodeFuzzBatches(data)
		if len(batches) == 0 {
			return
		}
		auto := AutoshardConfig{
			Enabled: true, Interval: -1,
			Buckets: 8, DecayShift: 2,
			MaxStep: 5, MinHeat: 1,
		}
		type arm struct {
			name   string
			eng    *Engine
			shards int
		}
		var arms []arm
		for _, n := range []int{1, 2, 3, 8} {
			for _, pipelined := range []bool{false, true} {
				e, err := New(Config{
					Shards:    n,
					Engine:    testEngineConfig(core.IntraInter, pipelined),
					KeyMax:    fuzzSpan - 1,
					Autoshard: auto,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				arms = append(arms, arm{name: "auto+" + armName(n, pipelined), eng: e, shards: n})
			}
		}

		orc := oracle.New()
		for bi, qs := range batches {
			want := keys.NewResultSet(len(qs))
			orc.ApplyAll(append([]keys.Query(nil), qs...), want)
			for _, a := range arms {
				rs := keys.NewResultSet(len(qs))
				a.eng.ProcessBatch(append([]keys.Query(nil), qs...), rs)
				diffResults(t, a.name, bi, want, rs, len(qs))
				// Two controller steps per batch: back-to-back steps
				// continue a move that outgrew one MaxStep slice.
				for step := 0; step < 2; step++ {
					a.eng.AutoshardStep()
					if n, b := a.eng.Shards(), a.eng.Bounds(); n != a.shards || len(b) != a.shards-1 {
						t.Fatalf("%s: %d shards, %d bounds, want %d and %d", a.name, n, len(b), a.shards, a.shards-1)
					}
				}
			}
		}
		oks, ovs := orc.Dump()
		for _, a := range arms {
			ks, vs := a.eng.Dump()
			if len(ks) != len(oks) {
				t.Fatalf("%s: final store %d keys, want %d (shards=%d bounds=%v)",
					a.name, len(ks), len(oks), a.eng.Shards(), a.eng.Bounds())
			}
			for i := range oks {
				if ks[i] != oks[i] || vs[i] != ovs[i] {
					t.Fatalf("%s: store[%d] = (%d,%d), want (%d,%d)",
						a.name, i, ks[i], vs[i], oks[i], ovs[i])
				}
			}
		}
	})
}

// TestAutoshardMoveWarmsReceiverCache pins the cache hand-off half of
// the migration contract: a traffic-weighted boundary move re-admits
// the moved pairs into the receiver's cache as clean entries. Read
// misses never admit, and the move drains the range from both caches,
// so a cache hit on a just-moved key is only possible if the migration
// itself warmed the receiver.
func TestAutoshardMoveWarmsReceiverCache(t *testing.T) {
	e, err := New(Config{
		Shards: 2,
		Engine: testEngineConfig(core.IntraInter, false),
		KeyMax: 1<<16 - 1,
		Autoshard: AutoshardConfig{
			Enabled: true, Interval: -1,
			Buckets: 16, MaxStep: 100, MinHeat: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	orc := oracle.New()
	seedPairs(t, e, orc, 1<<16, 64) // 1024 pairs
	coolHeat(e)
	for b := 0; b < 4; b++ {
		injectHeat(e, keys.Key(b*4096+100), 250)
	}

	// One bounded move: the bound drops from 32768 by MaxStep pairs, so
	// keys [newBound, 32768) now live in shard 1, whose cache was just
	// warmed with the tail of the moved slice.
	r := e.AutoshardStep()
	if r.Moved == 0 {
		t.Fatalf("expected a boundary move, got %+v", r)
	}
	bound := e.Bounds()[0]
	if bound >= 32768 {
		t.Fatalf("bound did not move down: %d", bound)
	}

	// Search the four highest moved keys (cache capacity is 16, so the
	// warmed tail certainly still covers them).
	want := []keys.Key{32704, 32640, 32576, 32512}
	qs := keys.Number([]keys.Query{
		keys.Search(want[0]), keys.Search(want[1]),
		keys.Search(want[2]), keys.Search(want[3]),
	})
	rs := keys.NewResultSet(len(qs))
	e.ProcessBatch(qs, rs)
	for i, k := range want {
		got, ok := rs.Get(int32(i))
		if !ok || !got.Found || got.Value != keys.Value(k)+3 {
			t.Fatalf("search %d = (%+v,%v), want (%d,true)", i, got, ok, keys.Value(k)+3)
		}
	}
	if hits := e.Stats().CacheHits; hits < 4 {
		t.Fatalf("moved keys served %d cache hits, want 4 — migration did not warm the receiver", hits)
	}
	checkStore(t, "post-warm", e, orc)
}
