// Package repro's root benchmark suite regenerates every figure and
// table of the paper's evaluation as a testing.B benchmark (DESIGN.md
// §3 maps each to its figure). Each benchmark iteration processes one
// batch; the reported "qps" metric is query throughput, the quantity
// on the y-axis of Figs. 9-12, 14a and 15.
//
// Run everything: go test -bench=. -benchmem
// One figure:     go test -bench=BenchmarkFig9
// End-to-end and per-layer numbers come from go run ./benchmark.
package repro

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/palm"
	"repro/internal/shard"
	"repro/internal/workload"
)

// benchScale keeps every benchmark laptop-sized; the shapes (opt vs
// org, skewed vs uniform) are what matter, not absolute numbers.
const benchScale = 0.002

// benchCase is one measured configuration.
type benchCase struct {
	dataset     string
	mode        core.Mode
	updateRatio float64
	threads     int
	batchSize   int // 0 = dataset default
}

// runBatches drives b.N batches through a fresh engine and reports
// throughput.
func runBatches(b *testing.B, c benchCase) {
	b.Helper()
	spec, err := workload.SpecByName(c.dataset, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	batchSize := c.batchSize
	if batchSize == 0 {
		batchSize = spec.BatchSize
	}
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          c.mode,
		Palm:          palm.Config{Workers: c.threads, LoadBalance: true},
		CacheCapacity: 1 << 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	gen := spec.Build()
	r := rand.New(rand.NewSource(42))
	rs := keys.NewResultSet(batchSize)
	pre := workload.Prefill(gen, r, spec.UniqueKeys)
	for lo := 0; lo < len(pre); lo += batchSize {
		hi := lo + batchSize
		if hi > len(pre) {
			hi = len(pre)
		}
		chunk := keys.Number(pre[lo:hi])
		rs.Reset(len(chunk))
		eng.ProcessBatch(chunk, rs)
	}

	batch := make([]keys.Query, batchSize)
	b.ResetTimer()
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		workload.FillBatch(gen, r, batch, c.updateRatio)
		rs.Reset(len(batch))
		b.StartTimer()
		start := time.Now()
		eng.ProcessBatch(batch, rs)
		busy += time.Since(start)
	}
	b.StopTimer()
	if busy > 0 {
		b.ReportMetric(float64(batchSize*b.N)/busy.Seconds(), "qps")
	}
	b.ReportMetric(100*eng.Stats().ReductionRatio(), "reduction%")
}

// throughputFigure benches org vs opt across update ratios (Figs. 9,
// 11a-b, 12a).
func throughputFigure(b *testing.B, dataset string) {
	for _, u := range []float64{0, 0.25, 0.5, 0.75} {
		for _, mode := range []core.Mode{core.Original, core.IntraInter} {
			b.Run(fmt.Sprintf("U%.2f/%s", u, mode), func(b *testing.B) {
				runBatches(b, benchCase{dataset: dataset, mode: mode, updateRatio: u})
			})
		}
	}
}

// scalabilityFigure benches opt across thread counts (Figs. 10, 11c-d,
// 12b). On a single-core host the sweep still exercises the BSP
// machinery with oversubscribed workers.
func scalabilityFigure(b *testing.B, dataset string) {
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads%d", th), func(b *testing.B) {
			runBatches(b, benchCase{dataset: dataset, mode: core.IntraInter, updateRatio: 0.25, threads: th})
		})
	}
}

func BenchmarkFig9Gaussian(b *testing.B)    { throughputFigure(b, "gaussian") }
func BenchmarkFig9SelfSimilar(b *testing.B) { throughputFigure(b, "self-similar") }
func BenchmarkFig9Zipfian(b *testing.B)     { throughputFigure(b, "zipfian") }
func BenchmarkFig9Uniform(b *testing.B)     { throughputFigure(b, "uniform") }

func BenchmarkFig10Gaussian(b *testing.B)    { scalabilityFigure(b, "gaussian") }
func BenchmarkFig10SelfSimilar(b *testing.B) { scalabilityFigure(b, "self-similar") }
func BenchmarkFig10Zipfian(b *testing.B)     { scalabilityFigure(b, "zipfian") }
func BenchmarkFig10Uniform(b *testing.B)     { scalabilityFigure(b, "uniform") }

func BenchmarkFig11YcsbLatest(b *testing.B)       { throughputFigure(b, "ycsb-latest") }
func BenchmarkFig11YcsbZipfian(b *testing.B)      { throughputFigure(b, "ycsb-zipfian") }
func BenchmarkFig11ScaleYcsbLatest(b *testing.B)  { scalabilityFigure(b, "ycsb-latest") }
func BenchmarkFig11ScaleYcsbZipfian(b *testing.B) { scalabilityFigure(b, "ycsb-zipfian") }

func BenchmarkFig12Taxi(b *testing.B)      { throughputFigure(b, "taxi") }
func BenchmarkFig12ScaleTaxi(b *testing.B) { scalabilityFigure(b, "taxi") }

// BenchmarkFig4Skew measures the workload generators' draw cost and
// reports the top-1000 coverage each run observes (the Fig. 4 stat).
func BenchmarkFig4Skew(b *testing.B) {
	for _, name := range []string{"taxi", "ycsb-latest", "ycsb-zipfian"} {
		b.Run(name, func(b *testing.B) {
			spec, err := workload.SpecByName(name, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			gen := spec.Build()
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.Key(r)
			}
			b.StopTimer()
			frac, _ := workload.Coverage(gen, rand.New(rand.NewSource(1)), 100_000, 1000)
			b.ReportMetric(100*frac, "top1000_cov%")
		})
	}
}

// BenchmarkFig13LoadBalance compares Stage-2 assignment with and
// without prefix-sum balancing; the imbalance metric is Fig. 13's
// max/mean leaf-operation ratio.
func BenchmarkFig13LoadBalance(b *testing.B) {
	for _, lb := range []bool{true, false} {
		label := "prefix-sum"
		if !lb {
			label = "naive"
		}
		b.Run(label, func(b *testing.B) {
			spec, err := workload.SpecByName("self-similar", benchScale)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := core.NewEngine(core.EngineConfig{
				Mode:          core.IntraInter,
				Palm:          palm.Config{Workers: 8, LoadBalance: lb},
				CacheCapacity: 1 << 14,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			gen := spec.Build()
			r := rand.New(rand.NewSource(42))
			rs := keys.NewResultSet(spec.BatchSize)
			pre := workload.Prefill(gen, r, spec.UniqueKeys)
			for lo := 0; lo < len(pre); lo += spec.BatchSize {
				hi := lo + spec.BatchSize
				if hi > len(pre) {
					hi = len(pre)
				}
				chunk := keys.Number(pre[lo:hi])
				rs.Reset(len(chunk))
				eng.ProcessBatch(chunk, rs)
			}
			batch := make([]keys.Query, spec.BatchSize)
			imbalance := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				workload.FillBatch(gen, r, batch, 0.25)
				rs.Reset(len(batch))
				b.StartTimer()
				eng.ProcessBatch(batch, rs)
				imbalance += eng.Stats().LeafOpImbalance()
			}
			b.ReportMetric(imbalance/float64(b.N), "max/mean")
		})
	}
}

// BenchmarkFig14Breakdown measures org vs intra vs inter on
// self-similar U-0.25 (Fig. 14a); the per-stage times of Fig. 14c come
// from the per-layer metrics of go run ./benchmark -trace 1.
func BenchmarkFig14Breakdown(b *testing.B) {
	for _, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter} {
		b.Run(mode.String(), func(b *testing.B) {
			runBatches(b, benchCase{dataset: "self-similar", mode: mode, updateRatio: 0.25})
		})
	}
}

// BenchmarkFig15BatchSize sweeps the batch size (0.5M/3M/6M scaled) on
// self-similar U-0.25.
func BenchmarkFig15BatchSize(b *testing.B) {
	for _, paperSize := range []int{500_000, 3_000_000, 6_000_000} {
		size := int(float64(paperSize) * benchScale)
		for _, mode := range []core.Mode{core.Original, core.IntraInter} {
			b.Run(fmt.Sprintf("batch%d/%s", size, mode), func(b *testing.B) {
				runBatches(b, benchCase{dataset: "self-similar", mode: mode, updateRatio: 0.25, batchSize: size})
			})
		}
	}
}

// benchStream drives b.N batches end-to-end through ProcessStream,
// serially or two-stage pipelined. A fixed pregenerated corpus is
// copied into recycled job buffers inside the loop (equal cost in both
// arms), so the measured region is the streaming engine itself and
// steady-state allocations show up in -benchmem.
func benchStream(b *testing.B, mode core.Mode, pipelined bool, batchSize int) {
	b.Helper()
	spec, err := workload.SpecByName("self-similar", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	if batchSize == 0 {
		batchSize = spec.BatchSize
	}
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          mode,
		Palm:          palm.Config{LoadBalance: true},
		CacheCapacity: 1 << 14,
		Pipeline:      pipelined,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	gen := spec.Build()
	r := rand.New(rand.NewSource(42))
	rs := keys.NewResultSet(batchSize)
	pre := workload.Prefill(gen, r, spec.UniqueKeys)
	for lo := 0; lo < len(pre); lo += batchSize {
		hi := lo + batchSize
		if hi > len(pre) {
			hi = len(pre)
		}
		chunk := keys.Number(pre[lo:hi])
		rs.Reset(len(chunk))
		eng.ProcessBatch(chunk, rs)
	}

	const corpusLen = 16
	corpus := make([][]keys.Query, corpusLen)
	for i := range corpus {
		corpus[i] = make([]keys.Query, batchSize)
		workload.FillBatch(gen, r, corpus[i], 0.25)
	}
	const ring = 4
	free := make(chan *core.Job, ring)
	for i := 0; i < ring; i++ {
		free <- &core.Job{Qs: make([]keys.Query, batchSize)}
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	in := make(chan *core.Job, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			j := <-free
			copy(j.Qs, corpus[i%corpusLen])
			in <- j
		}
		close(in)
	}()
	eng.ProcessStream(in, func(j *core.Job) { free <- j })
	busy := time.Since(start)
	b.StopTimer()
	if busy > 0 {
		b.ReportMetric(float64(batchSize*b.N)/busy.Seconds(), "qps")
	}
}

// BenchmarkPipeline compares serial vs pipelined stream execution (the
// EngineConfig.Pipeline tentpole) on self-similar U-0.25 for two batch
// sizes. Overlap speedup needs spare cores; on a single-core host both
// arms should be within noise of each other (see EXPERIMENTS.md).
func BenchmarkPipeline(b *testing.B) {
	spec, err := workload.SpecByName("self-similar", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{spec.BatchSize, 4 * spec.BatchSize} {
		for _, mode := range []core.Mode{core.Original, core.IntraInter} {
			for _, arm := range []struct {
				name      string
				pipelined bool
			}{{"serial", false}, {"pipe", true}} {
				b.Run(fmt.Sprintf("batch%d/%s/%s", size, mode, arm.name), func(b *testing.B) {
					benchStream(b, mode, arm.pipelined, size)
				})
			}
		}
	}
}

// BenchmarkShards sweeps the shard count of the range-partitioned
// engine (internal/shard) on a uniform and a skewed dataset, dividing a
// fixed worker budget across shards. Reported metrics: "qps" and the
// routing "imbalance" (max/mean queries per shard — 1.0 is perfectly
// even; skewed datasets show why Rebalance exists).
func BenchmarkShards(b *testing.B) {
	for _, ds := range []string{"uniform", "zipfian"} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards%d", ds, shards), func(b *testing.B) {
				benchSharded(b, ds, shards)
			})
		}
	}
}

func benchSharded(b *testing.B, dataset string, shards int) {
	b.Helper()
	spec, err := workload.SpecByName(dataset, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	batchSize := spec.BatchSize
	gen := spec.Build()
	perShard := 4 / shards
	if perShard < 1 {
		perShard = 1
	}
	eng, err := shard.New(shard.Config{
		Shards: shards,
		Engine: core.EngineConfig{
			Mode:          core.IntraInter,
			Palm:          palm.Config{Workers: perShard, LoadBalance: true},
			CacheCapacity: 1 << 14,
		},
		KeyMax: keys.Key(gen.KeyRange()),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	r := rand.New(rand.NewSource(42))
	rs := keys.NewResultSet(batchSize)
	pre := workload.Prefill(gen, r, spec.UniqueKeys)
	for lo := 0; lo < len(pre); lo += batchSize {
		hi := lo + batchSize
		if hi > len(pre) {
			hi = len(pre)
		}
		chunk := keys.Number(pre[lo:hi])
		rs.Reset(len(chunk))
		eng.ProcessBatch(chunk, rs)
	}

	batch := make([]keys.Query, batchSize)
	b.ResetTimer()
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		workload.FillBatch(gen, r, batch, 0.25)
		rs.Reset(len(batch))
		b.StartTimer()
		start := time.Now()
		eng.ProcessBatch(batch, rs)
		busy += time.Since(start)
	}
	b.StopTimer()
	if busy > 0 {
		b.ReportMetric(float64(batchSize*b.N)/busy.Seconds(), "qps")
	}
	b.ReportMetric(eng.ShardStats().Imbalance(), "imbalance")
}

// BenchmarkAblationGC quantifies how much Go's garbage collector blurs
// throughput (the reproduction-band caveat in DESIGN.md §4.4): the
// same opt run with the default GC target vs GC effectively disabled.
func BenchmarkAblationGC(b *testing.B) {
	for _, gc := range []struct {
		name    string
		percent int
	}{{"gc100", 100}, {"gcOff", -1}} {
		b.Run(gc.name, func(b *testing.B) {
			old := debug.SetGCPercent(gc.percent)
			defer debug.SetGCPercent(old)
			runBatches(b, benchCase{dataset: "zipfian", mode: core.IntraInter, updateRatio: 0.25})
		})
	}
}

// BenchmarkTable2Latency reports mean batch latency per dataset for
// opt/org at U-0 and U-0.75 (ns/op IS the batch latency here).
func BenchmarkTable2Latency(b *testing.B) {
	for _, ds := range []string{"gaussian", "self-similar", "zipfian", "uniform", "ycsb-latest", "ycsb-zipfian", "taxi"} {
		for _, u := range []float64{0, 0.75} {
			for _, mode := range []core.Mode{core.IntraInter, core.Original} {
				b.Run(fmt.Sprintf("%s/U%.2f/%s", ds, u, mode), func(b *testing.B) {
					runBatches(b, benchCase{dataset: ds, mode: mode, updateRatio: u})
				})
			}
		}
	}
}
