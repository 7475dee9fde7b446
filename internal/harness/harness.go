// Package harness drives the paper's evaluation (§VI): it builds trees
// from Table I dataset specs, streams query batches through the
// original PALM pipeline and the QTrans-optimized pipelines, and emits
// the rows behind every figure and table. Each experiment function
// corresponds to one figure/table; see DESIGN.md §3 for the index.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Scale shrinks Table I dataset sizes (1 = paper scale). The
	// default used by the CLI and benches is laptop-scale.
	Scale float64
	// Workers is the BSP thread count; <= 0 selects GOMAXPROCS.
	Workers int
	// Order is the B+ tree order; <= 0 selects the default.
	Order int
	// Seed makes workloads reproducible.
	Seed int64
	// CacheCapacity is the top-K cache size for IntraInter runs.
	CacheCapacity int
	// Batches caps the number of batches per run (0 = all queries).
	Batches int

	// Metrics, when non-nil, instruments every engine the harness builds
	// into the given registry (nil keeps runs uninstrumented, identical
	// to before).
	Metrics *metrics.Registry

	// Autoshard, when Enabled, turns on the traffic-aware resharding
	// controller for sharded runs (RunShardOne with shards > 1). The
	// harness always steps the controller manually at batch boundaries
	// — the background loop is forced off — so the measured loop stays
	// deterministic.
	Autoshard shard.AutoshardConfig

	// TieredDir, when set, wraps one-shard runs (RunOne and the
	// probe paths built on it) with the cold-range tier store
	// (DESIGN.md §14) rooted at this directory; the directory is wiped
	// on open. Sharded and streamed runs do not support tiering.
	TieredDir string
	// TieredBudget is the tiered runs' resident key budget
	// (0 = a quarter of the keys stored after prefill).
	TieredBudget int

	// Conns is the number of concurrent client connections the serve
	// experiment drives (<= 0 derives a laptop-scale count from Scale).
	Conns int
	// ServerBin, when set, points the serve experiment at a built
	// cmd/qtransserver binary: each phase spawns its own server process
	// (so client and server draw on separate file-descriptor budgets)
	// and parses its stdout counter lines. Empty runs the server
	// in-process, which caps Conns at inprocConnCap because every
	// connection then costs two descriptors in one process.
	ServerBin string
}

// palmConfig builds the tree-processor config for one measurement arm.
func (o Options) palmConfig(workers int, loadBalance bool) palm.Config {
	return palm.Config{
		Order:       o.Order,
		Workers:     workers,
		LoadBalance: loadBalance,
	}
}

// normalized fills defaults.
func (o Options) normalized() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 0.002
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 1 << 16
	}
	return o
}

// Result is the outcome of one (dataset, mode, update ratio, threads)
// measurement.
type Result struct {
	Dataset     string
	Mode        core.Mode
	UpdateRatio float64
	Threads     int
	BatchSize   int
	Queries     int
	Elapsed     time.Duration
	// Throughput in queries/second over the whole run.
	Throughput float64
	// Latency summarizes per-batch wall time (Table II).
	Latency stats.LatencyRecorder
	// Totals accumulates per-batch stats (reduction ratio, stage
	// times, leaf ops).
	Totals *stats.Batch
	// Batches is the number of measured batches.
	Batches int
	// Mem is the allocation/GC growth over the measured loop (the
	// allocation-sweep metrics; divide by Batches for per-batch rates).
	Mem stats.MemDelta
	// ShardStats carries routing/imbalance counters for sharded runs
	// (nil otherwise).
	ShardStats *stats.Shard
	// Tier carries the cold-store gauges and counters for tiered runs
	// (nil otherwise).
	Tier *tier.Stats
}

// ReductionRatio of the whole run.
func (r *Result) ReductionRatio() float64 { return r.Totals.ReductionRatio() }

// Runner executes measurements.
type Runner struct {
	Opts Options
}

// NewRunner returns a Runner with normalized options.
func NewRunner(opts Options) *Runner { return &Runner{Opts: opts.normalized()} }

// RunOne measures one configuration. threads <= 0 uses Opts.Workers;
// batchSize <= 0 uses the spec's (scaled) batch size.
func (rn *Runner) RunOne(spec workload.Spec, mode core.Mode, updateRatio float64, threads, batchSize int) (*Result, error) {
	return rn.runCustom(spec, mode, updateRatio, threads, batchSize, true)
}

// runCustom is RunOne with an explicit load-balancing setting (the
// Fig. 13 ablation disables it).
func (rn *Runner) runCustom(spec workload.Spec, mode core.Mode, updateRatio float64, threads, batchSize int, loadBalance bool) (*Result, error) {
	o := rn.Opts
	if threads <= 0 {
		threads = o.Workers
	}
	if batchSize <= 0 {
		batchSize = spec.BatchSize
	}
	if batchSize < 1 {
		batchSize = 1
	}

	inner, err := shard.New(shard.Config{Engine: core.EngineConfig{
		Mode:          mode,
		Palm:          o.palmConfig(threads, loadBalance),
		CacheCapacity: o.CacheCapacity,
		Metrics:       o.Metrics,
	}})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	gen := spec.Build()
	var eng interface {
		ProcessBatch(qs []keys.Query, rs *keys.ResultSet)
		Stats() *stats.Batch
		Close()
	} = inner

	r := rand.New(rand.NewSource(o.Seed))

	// Prefill: build the tree from the dataset's unique keys, via the
	// engine itself in batch-sized chunks (fast and latch-free). The
	// tier wrapper attaches after the prefill, so its default budget
	// can be sized against the keys actually stored (skewed datasets
	// collapse many draws onto few distinct keys).
	prefill := workload.Prefill(gen, r, spec.UniqueKeys)
	rs := keys.NewResultSet(batchSize)
	for lo := 0; lo < len(prefill); lo += batchSize {
		hi := lo + batchSize
		if hi > len(prefill) {
			hi = len(prefill)
		}
		chunk := keys.Number(prefill[lo:hi])
		rs.Reset(len(chunk))
		eng.ProcessBatch(chunk, rs)
	}

	var te *tier.Engine
	if o.TieredDir != "" {
		budget := o.TieredBudget
		if budget <= 0 {
			budget = inner.StoredLen() / 4
			if budget < 1 {
				budget = 1
			}
		}
		st, err := tier.Open(tier.Config{
			Dir:         o.TieredDir,
			MaxResident: budget,
			KeyMax:      keys.Key(gen.KeyRange()),
			Metrics:     o.Metrics,
		}, true)
		if err != nil {
			inner.Close()
			return nil, fmt.Errorf("harness: %w", err)
		}
		// Eight maintenance actions per batch so residency converges
		// toward the budget within a short probe run.
		te = tier.NewEngine(inner, st, 8)
		eng = te
	}
	defer eng.Close()

	res := &Result{
		Dataset:     spec.Name,
		Mode:        mode,
		UpdateRatio: updateRatio,
		Threads:     threads,
		BatchSize:   batchSize,
		Totals:      stats.NewBatch(threads),
	}

	nBatches := (spec.Queries + batchSize - 1) / batchSize
	if o.Batches > 0 && nBatches > o.Batches {
		nBatches = o.Batches
	}
	batch := make([]keys.Query, batchSize)
	var elapsed time.Duration
	m0 := stats.CaptureMem()
	for b := 0; b < nBatches; b++ {
		workload.FillBatch(gen, r, batch, updateRatio)
		rs.Reset(len(batch))
		start := time.Now()
		eng.ProcessBatch(batch, rs)
		d := time.Since(start)
		elapsed += d
		res.Latency.Record(d)
		eng.Stats().AddTo(res.Totals)
		res.Queries += len(batch)
	}
	res.Mem = stats.CaptureMem().Sub(m0)
	res.Batches = nBatches
	res.Elapsed = elapsed
	res.Throughput = stats.Throughput(res.Queries, elapsed)
	if te != nil {
		if err := te.Err(); err != nil {
			return nil, fmt.Errorf("harness: tiered run: %w", err)
		}
		ts := te.Store().Stats()
		res.Tier = &ts
	}
	return res, nil
}

// RunStreamOne measures one configuration driven through the engine's
// streaming interface (ProcessStream), serially or two-stage pipelined.
// All batches are pre-generated so both arms stream identical inputs
// and generation cost stays outside the measured region; throughput is
// end-to-end wall clock over the whole stream, which is what pipelining
// improves (per-batch latency does not shrink — batches overlap).
func (rn *Runner) RunStreamOne(spec workload.Spec, mode core.Mode, updateRatio float64, pipelined bool, batchSize int) (*Result, error) {
	o := rn.Opts
	threads := o.Workers
	if batchSize <= 0 {
		batchSize = spec.BatchSize
	}
	if batchSize < 1 {
		batchSize = 1
	}

	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          mode,
		Palm:          o.palmConfig(threads, true),
		CacheCapacity: o.CacheCapacity,
		Pipeline:      pipelined,
		Metrics:       o.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer eng.Close()

	gen := spec.Build()
	r := rand.New(rand.NewSource(o.Seed))
	prefill := workload.Prefill(gen, r, spec.UniqueKeys)
	rs := keys.NewResultSet(batchSize)
	for lo := 0; lo < len(prefill); lo += batchSize {
		hi := lo + batchSize
		if hi > len(prefill) {
			hi = len(prefill)
		}
		chunk := keys.Number(prefill[lo:hi])
		rs.Reset(len(chunk))
		eng.ProcessBatch(chunk, rs)
	}

	nBatches := (spec.Queries + batchSize - 1) / batchSize
	if o.Batches > 0 && nBatches > o.Batches {
		nBatches = o.Batches
	}
	jobs := make([]*core.Job, nBatches)
	for b := range jobs {
		qs := make([]keys.Query, batchSize)
		workload.FillBatch(gen, r, qs, updateRatio)
		jobs[b] = &core.Job{Qs: qs}
	}

	res := &Result{
		Dataset:     spec.Name,
		Mode:        mode,
		UpdateRatio: updateRatio,
		Threads:     threads,
		BatchSize:   batchSize,
		Totals:      stats.NewBatch(threads),
	}

	in := make(chan *core.Job, 1)
	m0 := stats.CaptureMem()
	start := time.Now()
	go func() {
		for _, j := range jobs {
			in <- j
		}
		close(in)
	}()
	eng.ProcessStream(in, func(j *core.Job) {
		eng.Stats().AddTo(res.Totals)
		res.Queries += len(j.Qs)
	})
	res.Elapsed = time.Since(start)
	res.Mem = stats.CaptureMem().Sub(m0)
	res.Batches = nBatches
	res.Throughput = stats.Throughput(res.Queries, res.Elapsed)
	return res, nil
}

// RunShardOne measures one configuration on a range-partitioned
// sharded engine (shards <= 1 degenerates to a single engine inside
// shard.Engine). The worker budget is divided across shards —
// max(1, Workers/shards) BSP threads each — so the sweep compares
// partitionings of a fixed thread budget, not growing hardware. Initial
// boundaries are equal-width over the generator's key range; when
// rebalanceEvery > 0 the engine re-splits from the observed keys every
// that many batches. ShardStats on the returned result carries the
// routing/imbalance counters.
func (rn *Runner) RunShardOne(spec workload.Spec, mode core.Mode, updateRatio float64, shards, batchSize, rebalanceEvery int) (*Result, error) {
	o := rn.Opts
	if shards < 1 {
		shards = 1
	}
	if batchSize <= 0 {
		batchSize = spec.BatchSize
	}
	if batchSize < 1 {
		batchSize = 1
	}
	perShard := o.Workers / shards
	if perShard < 1 {
		perShard = 1
	}

	gen := spec.Build()
	auto := o.Autoshard
	auto.Interval = -1 // stepped manually at batch boundaries below
	eng, err := shard.New(shard.Config{
		Shards: shards,
		Engine: core.EngineConfig{
			Mode:          mode,
			Palm:          o.palmConfig(perShard, true),
			CacheCapacity: o.CacheCapacity,
			Metrics:       o.Metrics,
		},
		KeyMax:    keys.Key(gen.KeyRange()),
		Autoshard: auto,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer eng.Close()

	r := rand.New(rand.NewSource(o.Seed))
	prefill := workload.Prefill(gen, r, spec.UniqueKeys)
	rs := keys.NewResultSet(batchSize)
	for lo := 0; lo < len(prefill); lo += batchSize {
		hi := lo + batchSize
		if hi > len(prefill) {
			hi = len(prefill)
		}
		chunk := keys.Number(prefill[lo:hi])
		rs.Reset(len(chunk))
		eng.ProcessBatch(chunk, rs)
	}
	if rebalanceEvery > 0 {
		// Start from boundaries fitted to the prefilled store.
		if _, err := eng.Rebalance(); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Dataset:     spec.Name,
		Mode:        mode,
		UpdateRatio: updateRatio,
		Threads:     perShard * shards,
		BatchSize:   batchSize,
		Totals:      stats.NewBatch(perShard),
		ShardStats:  eng.ShardStats(),
	}

	nBatches := (spec.Queries + batchSize - 1) / batchSize
	if o.Batches > 0 && nBatches > o.Batches {
		nBatches = o.Batches
	}
	batch := make([]keys.Query, batchSize)
	var elapsed time.Duration
	for b := 0; b < nBatches; b++ {
		workload.FillBatch(gen, r, batch, updateRatio)
		rs.Reset(len(batch))
		start := time.Now()
		eng.ProcessBatch(batch, rs)
		if rebalanceEvery > 0 && (b+1)%rebalanceEvery == 0 {
			if _, err := eng.Rebalance(); err != nil {
				return nil, err
			}
		}
		if auto.Enabled {
			eng.AutoshardStep()
		}
		elapsed += time.Since(start)
		res.Latency.Record(time.Since(start))
		eng.Stats().AddTo(res.Totals)
		res.Queries += len(batch)
	}
	res.Batches = nBatches
	res.Elapsed = elapsed
	res.Throughput = stats.Throughput(res.Queries, elapsed)
	return res, nil
}

// UpdateRatios are the x-axis points of Figs. 9-12 and 14.
var UpdateRatios = []float64{0, 0.25, 0.5, 0.75}

// ThreadCounts returns the scalability sweep points of Figs. 10-12:
// powers of two from 1 up to max (the paper sweeps 1..64).
func ThreadCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// row prints an aligned table row.
func row(w io.Writer, cols ...interface{}) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(w, "%.4g", v)
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}
