package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/palm"
	"repro/internal/workload"
)

// powerLaw draws keys k in [0, n) with P(k) ∝ (1+k)^−θ for θ > 1, the
// range workload.NewZipfian (Gray's formula, θ < 1) cannot reach. It
// draws from its own seeded source and ignores the caller's.
type powerLaw struct {
	z *rand.Zipf
	n uint64
}

func newPowerLaw(n uint64, theta float64, seed int64) *powerLaw {
	return &powerLaw{z: rand.NewZipf(rand.New(rand.NewSource(seed)), theta, 1, n-1), n: n}
}

func (p *powerLaw) Key(*rand.Rand) keys.Key { return keys.Key(p.z.Uint64()) }
func (p *powerLaw) Name() string            { return "power-law" }
func (p *powerLaw) KeyRange() uint64        { return p.n }

// skewGen returns the crossover sweep's key generator for θ: uniform at
// 0, Gray's zipfian below 1 and the power law above.
func skewGen(n uint64, theta float64, seed int64) workload.Generator {
	switch {
	case theta == 0:
		return workload.NewUniform(n)
	case theta < 1:
		return workload.NewZipfian(n, theta)
	default:
		return newPowerLaw(n, theta, seed)
	}
}

func TestDuplicateShare(t *testing.T) {
	for _, c := range []struct {
		ks   []keys.Key
		want float64
	}{
		{nil, 0},
		{[]keys.Key{5}, 0},
		{[]keys.Key{1, 2, 3, 4}, 0},
		{[]keys.Key{1, 1, 1, 1}, 0.75},
		{[]keys.Key{1, 1, 2, 3}, 0.25},
	} {
		qs := make([]keys.Query, len(c.ks))
		for i, k := range c.ks {
			qs[i] = keys.Search(k)
		}
		if got := duplicateShare(qs); got != c.want {
			t.Errorf("duplicateShare(%v) = %v, want %v", c.ks, got, c.want)
		}
	}
}

// TestAdaptiveGateHysteresis drives the gate's state machine directly:
// it starts with the cache on, turns it off once the EWMA falls below
// d*, keeps it off inside the band, turns it on above the band, and
// ignores batches below gateMinPoints.
func TestAdaptiveGateHysteresis(t *testing.T) {
	g := newAdaptiveGate()
	if reduce, on := g.decide(0, 1); !reduce || !on {
		t.Fatalf("first small batch: reduce=%v cache=%v, want the cache on and QSAT run", reduce, on)
	}
	if g.ewma != 1 {
		t.Fatalf("a 1-query batch moved the EWMA to %v", g.ewma)
	}
	n := gateMinPoints
	steps := 0
	for g.cacheOn {
		g.decide(0, n)
		steps++
	}
	if steps > 2 {
		t.Errorf("cache took %d distinct batches to turn off, want ≤ 2", steps)
	}
	if reduce, _ := g.decide(0, n); reduce {
		t.Error("a distinct-key batch with the cache off ran QSAT")
	}
	if reduce, on := g.decide(1, n); !reduce || on {
		t.Errorf("an all-duplicate batch after a cold EWMA: reduce=%v cache=%v, want QSAT with the cache still off", reduce, on)
	}
	// Hold the EWMA inside the band: the mode must not move.
	g.ewma = gateCrossover + gateBand/2
	if _, on := g.decide(gateCrossover+gateBand/2, n); on {
		t.Error("cache turned on inside the hysteresis band")
	}
	for !g.cacheOn {
		g.decide(1, n)
	}
	if g.ewma <= gateCrossover+gateBand {
		t.Errorf("cache turned on at EWMA %v, want above %v", g.ewma, gateCrossover+gateBand)
	}
	g.ewma = gateCrossover + gateBand/2
	if reduce, on := g.decide(gateCrossover-0.01, n); !reduce || !on {
		t.Errorf("a batch below d* with the cache on: reduce=%v cache=%v, want QSAT (the cache pass needs a reduced batch)", reduce, on)
	}
}

// TestAdaptiveCacheModeRules pins the three rules that keep the cache
// mode correct: switching the cache off drains it into the tree, the
// off cache stays empty (Train, WarmPairs and DrainCacheRange do
// nothing), and so the unreduced batches that follow meet no cache.
// Turning it back on makes Train admit again.
func TestAdaptiveCacheModeRules(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Mode: Adaptive, Palm: palm.Config{Workers: 2}, CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hot := func(v keys.Value) []keys.Query { // d ≈ 1: eight keys, 512 writes
		qs := make([]keys.Query, 512)
		for i := range qs {
			qs[i] = keys.Insert(keys.Key(i%8), v)
		}
		return keys.Number(qs)
	}
	distinct := func() []keys.Query { // d = 0: searches over the hot keys and past them
		qs := make([]keys.Query, 512)
		for i := range qs {
			qs[i] = keys.Search(keys.Key(i))
		}
		return keys.Number(qs)
	}
	run := func(qs []keys.Query) *keys.ResultSet {
		rs := keys.NewResultSet(len(qs))
		eng.ProcessBatch(qs, rs)
		return rs
	}

	run(hot(7))
	if st := eng.Stats(); st.CacheOn != 1 || st.QSATSkipped != 0 || eng.topK.Len() != 8 {
		t.Fatalf("hot batch: cache-on=%d skipped=%d resident=%d, want 1 0 8", st.CacheOn, st.QSATSkipped, eng.topK.Len())
	}
	rs := run(distinct())
	st := eng.Stats()
	if st.CacheOn != 0 || st.QSATSkipped != 1 || st.CacheModeSwitches != 1 || st.CacheDrains != 1 {
		t.Fatalf("distinct batch: cache-on=%d skipped=%d switches=%d drains=%d, want 0 1 1 1",
			st.CacheOn, st.QSATSkipped, st.CacheModeSwitches, st.CacheDrains)
	}
	if eng.topK.Len() != 0 {
		t.Fatalf("switching the cache off left %d residents", eng.topK.Len())
	}
	for k := int32(0); k < 8; k++ {
		if r, _ := rs.Get(k); !r.Found || r.Value != 7 {
			t.Fatalf("key %d after the drain: %+v, want 7 from the tree", k, r)
		}
	}

	eng.Train([]keys.Key{1, 2, 600})
	eng.WarmPairs([]keys.Key{3}, []keys.Value{7})
	eng.DrainCacheRange(0, 1<<20)
	if eng.topK.Len() != 0 {
		t.Fatalf("the off cache holds %d entries after Train/WarmPairs/DrainCacheRange", eng.topK.Len())
	}

	for i := 0; eng.Stats().CacheOn == 0; i++ {
		if i == 16 {
			t.Fatal("hot batches never turned the cache back on")
		}
		run(hot(9))
	}
	if st := eng.Stats(); st.CacheModeSwitches != 1 || st.CacheDrains != 0 {
		t.Fatalf("switch-on batch: switches=%d drains=%d, want 1 0", st.CacheModeSwitches, st.CacheDrains)
	}
	eng.Train([]keys.Key{600})
	if !eng.topK.Contains(600) {
		t.Fatal("Train did not admit once the cache was back on")
	}
}

// gateEngine is an Adaptive engine at the benchmark spine's sizes with
// an empty tree: the gate reads only the batches.
func gateEngine(t testing.TB, pipeline bool) *Engine {
	eng, err := NewEngine(EngineConfig{
		Mode:          Adaptive,
		Palm:          palm.Config{Workers: 2, LoadBalance: true},
		CacheCapacity: 1 << 16,
		Pipeline:      pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGateDecisions pins the gate on the two ends of the spine: after a
// warm-up, uniform batches of 16 384 queries over 4 Mi keys (the
// uniform-read-batch shape) skip QSAT in ≥ 95 % of batches with the
// cache off, and power-law θ = 2.0 batches never skip and keep the
// cache on. The stream's decisions must equal the serial ones.
func TestGateDecisions(t *testing.T) {
	const batch, warm, measured = 16384, 8, 32
	for _, c := range []struct {
		name    string
		gen     workload.Generator
		minSkip float64 // least share of measured batches that skip
		maxSkip float64
		cacheOn int // measured batches with the cache on
	}{
		{"uniform", workload.NewUniform(4 << 20), 0.95, 1, 0},
		{"theta=2.0", newPowerLaw(4<<20, 2.0, 3), 0, 0, measured},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			batches := make([][]keys.Query, warm+measured)
			for i := range batches {
				batches[i] = make([]keys.Query, batch)
				workload.FillBatchMixed(c.gen, r, batches[i], workload.MixedConfig{UpdateRatio: 0.05})
			}
			serial := gateEngine(t, false)
			defer serial.Close()
			var skips, cacheOn []int
			for _, b := range batches {
				qs := append([]keys.Query(nil), b...)
				serial.ProcessBatch(qs, keys.NewResultSet(len(qs)))
				skips = append(skips, serial.Stats().QSATSkipped)
				cacheOn = append(cacheOn, serial.Stats().CacheOn)
			}
			skipped, on := 0, 0
			for i := warm; i < len(batches); i++ {
				skipped += skips[i]
				on += cacheOn[i]
			}
			share := float64(skipped) / measured
			if share < c.minSkip || share > c.maxSkip {
				t.Errorf("QSAT skipped on %.2f of measured batches, want [%.2f, %.2f]", share, c.minSkip, c.maxSkip)
			}
			if on != c.cacheOn {
				t.Errorf("cache on for %d of %d measured batches, want %d", on, measured, c.cacheOn)
			}

			pipe := gateEngine(t, true)
			defer pipe.Close()
			in := make(chan *Job)
			go func() {
				for _, b := range batches {
					in <- &Job{Qs: append([]keys.Query(nil), b...)}
				}
				close(in)
			}()
			i := 0
			pipe.ProcessStream(in, func(*Job) {
				if st := pipe.Stats(); st.QSATSkipped != skips[i] || st.CacheOn != cacheOn[i] {
					t.Errorf("batch %d: pipelined skip=%d cache=%d, serial %d %d", i, st.QSATSkipped, st.CacheOn, skips[i], cacheOn[i])
				}
				i++
			})
		})
	}
}

// BenchmarkGateCrossover measures where org stops winning — the
// duplicate share d* the Adaptive gate uses (gateCrossover). Over
// key skews θ ∈ {0, 0.8, 0.99, 1.2, 1.5, 2.0} (uniform, Gray's
// zipfian, then the power law) at the skew-batch shape — 2 Mi key
// range, 1 Mi prefill draws, batch 16 384, 25 % updates, 2 workers,
// K = 65 536 — it reports each mode's engine ns per query and the
// batches' duplicate share, then logs the table and the crossover: the
// share, interpolated between the two θ that bracket it, at which
// org's ns/query meets the better of Intra and IntraInter. Adaptive is
// run beside them to show it tracks the winner.
//
//	go test -run '^$' -bench GateCrossover -benchtime 40x ./internal/core
func BenchmarkGateCrossover(b *testing.B) {
	const keyRange, prefill, batch, warm = 2 << 20, 1 << 20, 16384, 16
	thetas := []float64{0, 0.8, 0.99, 1.2, 1.5, 2.0}
	modes := []Mode{Original, Intra, IntraInter, Adaptive}
	type cell struct{ ns, d float64 }
	cells := map[float64]map[Mode]cell{}
	for _, theta := range thetas {
		cells[theta] = map[Mode]cell{}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("theta=%g/%s", theta, mode), func(b *testing.B) {
				eng, err := NewEngine(EngineConfig{
					Mode:          mode,
					Palm:          palm.Config{Workers: 2, LoadBalance: true},
					CacheCapacity: 1 << 16,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				r := rand.New(rand.NewSource(42))
				uniform := workload.NewUniform(keyRange)
				for left := prefill; left > 0; left -= 1 << 16 {
					fill := workload.Prefill(uniform, r, 1<<16)
					eng.ProcessBatch(fill, keys.NewResultSet(len(fill)))
				}
				gen := skewGen(keyRange, theta, 7)
				qs := make([]keys.Query, batch)
				rs := keys.NewResultSet(batch)
				next := func() {
					workload.FillBatchMixed(gen, r, qs, workload.MixedConfig{UpdateRatio: 0.25})
					rs.Reset(batch)
				}
				for i := 0; i < warm; i++ {
					next()
					eng.ProcessBatch(qs, rs)
				}
				d := 0.0
				runtime.GC() // the previous arm's engine is garbage now
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					next()
					b.StartTimer()
					eng.ProcessBatch(qs, rs)
					b.StopTimer()
					d += duplicateShare(qs) // qs is left sorted
					b.StartTimer()
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch)
				b.ReportMetric(ns, "ns/query")
				b.ReportMetric(d/float64(b.N), "dup-share")
				cells[theta][mode] = cell{ns, d / float64(b.N)}
			})
		}
	}
	for _, theta := range thetas {
		if len(cells[theta]) < len(modes) {
			return // filtered: no table to draw
		}
	}

	sort.Slice(thetas, func(i, j int) bool { return cells[thetas[i]][Original].d < cells[thetas[j]][Original].d })
	b.Logf("%6s %9s %9s %9s %9s %9s", "theta", "dup-share", "org", "intra", "inter", "adaptive")
	var prevD, prevGap float64
	crossover := -1.0
	for i, theta := range thetas {
		c := cells[theta]
		best := min(c[Intra].ns, c[IntraInter].ns)
		gap := c[Original].ns - best // > 0: org loses
		b.Logf("%6g %9.3f %9.1f %9.1f %9.1f %9.1f", theta, c[Original].d, c[Original].ns, c[Intra].ns, c[IntraInter].ns, c[Adaptive].ns)
		if crossover < 0 && gap > 0 {
			crossover = c[Original].d
			if i > 0 {
				crossover = prevD + (c[Original].d-prevD)*(-prevGap)/(gap-prevGap)
			}
		}
		prevD, prevGap = c[Original].d, gap
	}
	if crossover < 0 {
		b.Logf("org wins at every share measured; gateCrossover is %.2f", gateCrossover)
		return
	}
	b.Logf("org stops winning at duplicate share %.3f; gateCrossover is %.2f", crossover, gateCrossover)
}
