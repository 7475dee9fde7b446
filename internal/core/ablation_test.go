package core

// Ablation benchmarks for the design choices called out in DESIGN.md
// §5: one-pass vs two-round QSAT, cache capacity and policy sweeps,
// and pre-sorted vs unsorted batches.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bsp"
	"repro/internal/keys"
	"repro/internal/palm"
	"repro/internal/workload"
)

// ablationBatch builds a skewed batch for the QSAT ablations.
func ablationBatch(n int) []keys.Query {
	r := rand.New(rand.NewSource(99))
	gen := workload.NewZipfian(1<<16, 0.99)
	return workload.Batch(gen, r, n, 0.5)
}

// BenchmarkAblationOnePassQSAT measures the production one-pass QSAT
// (Algorithm 2) on a sorted batch.
func BenchmarkAblationOnePassQSAT(b *testing.B) {
	base := ablationBatch(1 << 16)
	keys.SortByKey(base)
	var router Router
	rs := keys.NewResultSet(len(base))
	e := NewEmitter(&router, rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router.Reset(len(base))
		rs.Reset(len(base))
		e.Reset()
		QSATSequence(base, e)
	}
	b.ReportMetric(float64(len(e.Out)), "remaining")
}

// BenchmarkAblationTwoRoundQSAT measures the reference two-round QSAT
// on the same batch — the cost of not fusing the rounds (§IV-E).
func BenchmarkAblationTwoRoundQSAT(b *testing.B) {
	base := ablationBatch(1 << 16)
	b.ResetTimer()
	var out []TransformedOp
	for i := 0; i < b.N; i++ {
		out = TwoRoundQSAT(base)
	}
	b.ReportMetric(float64(len(out)), "ops")
}

// BenchmarkAblationCacheCapacity sweeps the top-K cache size (K) on a
// skewed workload: too small thrashes (eviction flushes), large enough
// absorbs the hot set.
func BenchmarkAblationCacheCapacity(b *testing.B) {
	for _, k := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			benchEngine(b, EngineConfig{
				Mode:          IntraInter,
				Palm:          palm.Config{Workers: 1, LoadBalance: true},
				CacheCapacity: k,
			})
		})
	}
}

// benchEngine streams skewed batches through an engine configuration.
func benchEngine(b *testing.B, cfg EngineConfig) {
	b.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	r := rand.New(rand.NewSource(7))
	gen := workload.NewZipfian(1<<18, 0.99)
	const batchSize = 1 << 14
	rs := keys.NewResultSet(batchSize)
	batch := make([]keys.Query, batchSize)
	// Warm the tree and cache.
	for i := 0; i < 4; i++ {
		workload.FillBatch(gen, r, batch, 0.5)
		rs.Reset(batchSize)
		eng.ProcessBatch(batch, rs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		workload.FillBatch(gen, r, batch, 0.5)
		rs.Reset(batchSize)
		b.StartTimer()
		eng.ProcessBatch(batch, rs)
	}
	b.StopTimer()
	st := eng.Stats()
	if st.CacheHits+st.CacheMisses > 0 {
		b.ReportMetric(100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "hit%")
	}
}

// BenchmarkAblationPreSorted compares PALM on pre-sorted vs unsorted
// batches, isolating the pre-sorting cost QTrans piggybacks on (§IV-E).
func BenchmarkAblationPreSorted(b *testing.B) {
	for _, pre := range []bool{false, true} {
		name := "unsorted"
		if pre {
			name = "presorted"
		}
		b.Run(name, func(b *testing.B) {
			pool := bsp.NewPool(1)
			defer pool.Close()
			proc, err := palm.New(palm.Config{Workers: 1, LoadBalance: true}, pool)
			if err != nil {
				b.Fatal(err)
			}
			defer proc.Close()
			r := rand.New(rand.NewSource(3))
			gen := workload.NewUniform(1 << 18)
			const batchSize = 1 << 14
			rs := keys.NewResultSet(batchSize)
			batch := make([]keys.Query, batchSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				workload.FillBatch(gen, r, batch, 0.5)
				if pre {
					keys.SortByKey(batch)
				}
				rs.Reset(batchSize)
				b.StartTimer()
				if pre {
					proc.ProcessBatchSorted(batch, rs)
				} else {
					proc.ProcessBatch(batch, rs)
				}
			}
		})
	}
}

// BenchmarkAblationRouterReset isolates the per-batch Router clearing
// cost, the only O(batch) fixed overhead QTrans adds.
func BenchmarkAblationRouterReset(b *testing.B) {
	var router Router
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router.Reset(1 << 20)
	}
}
