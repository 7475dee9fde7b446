package main

import (
	"time"

	"repro/internal/workload"
	"repro/qtrans"
)

// spec freezes one workload: its inputs, the options the DB is opened
// with, and the amounts of work that are counted in batches instead of
// seconds. README.md gives the reason each workload exists.
type spec struct {
	name, why string
	// loop states the loop type and caller count (README, result stamp).
	loop string

	keyRange uint64
	prefill  int // prefill draws, uniform over keyRange (duplicates collapse)
	batch    int
	gen      func(n uint64) workload.Generator
	mix      workload.MixedConfig
	// background is the share of each batch drawn uniformly over the
	// key range as searches only.
	background float64

	// warm is the number of untimed batches that end set-up.
	warm int
	// verifyEvery compares every k-th batch's answers with the oracle;
	// every batch's writes are mirrored regardless.
	verifyEvery int

	stream          bool // RunStream + Pipeline + Shards + Durability
	chunk           int  // stream: batches generated ahead and streamed per RunStream call
	checkpointEvery int  // stream: DB.Checkpoint after this many batches
	tiered          bool
	residentKeys    int

	// served-open only.
	served  bool
	rate    float64 // total Poisson arrival rate, ops/s
	putFrac float64
}

// Work amounts at full scale. servedRate sits inside the served path's
// capacity: at the commit that added the benchmark its latency is flat
// from 20 000 to 80 000 ops/s (README.md).
const (
	servedRate     = 50_000
	sloMicros      = 25_000 // latency limit on served-open, per op
	genLateLimitUS = 5_000  // an open-loop run above this carries a warning
	setupReps      = 3      // set-ups per untraced run; setup_s is their median
	windowBatches  = 25     // throughput window of the batch workloads
	searchSamples  = 100_000
	replayBatches  = 8 // traced batches kept for the stand-alone layer replays
)

func specs() []spec {
	zipf := func(theta float64) func(uint64) workload.Generator {
		return func(n uint64) workload.Generator { return workload.NewZipfian(n, theta) }
	}
	return []spec{
		{
			name: "skew-batch", loop: "closed, 1 caller",
			why:      "zipfian 1.0 over 2M keys, batch 16384, 25% updates: QSAT removes most queries and the hot set fits the cache, so core and cache do the work",
			keyRange: 2 << 20, prefill: 1 << 20, batch: 16384,
			gen: zipf(1.0), mix: workload.MixedConfig{UpdateRatio: 0.25},
			warm: 64, verifyEvery: 4,
		},
		{
			name: "uniform-read-batch", loop: "closed, 1 caller",
			why:      "uniform over a 4M key range, 480k keys stored (7x the cache), batch 16384, 5% updates: the bypass for skew-batch, reduction and hit rate near 0, sort and find dominate",
			keyRange: 4 << 20, prefill: 512 << 10, batch: 16384,
			gen:  func(n uint64) workload.Generator { return workload.NewUniform(n) },
			mix:  workload.MixedConfig{UpdateRatio: 0.05},
			warm: 32, verifyEvery: 4,
		},
		{
			name: "mixed-write-batch", loop: "closed, 1 caller",
			why:      "gaussian over 2M keys, batch 16384: 50% updates, 10% RMW, 2% scans beside reads, so palm evaluate/modify, btree splits and scan fencing work",
			keyRange: 2 << 20, prefill: 1 << 20, batch: 16384,
			gen:  func(n uint64) workload.Generator { return workload.NewGaussian(n) },
			mix:  workload.MixedConfig{UpdateRatio: 0.5, RMWFrac: 0.10, ScanFrac: 0.02, ScanSpan: 128, ScanLimit: 64},
			warm: 16, verifyEvery: 4,
		},
		{
			name: "durable-shard-stream", loop: "closed, 1 caller streaming chunks of 16 batches",
			why:      "RunStream, pipelined, sharded, WAL fsync every 50ms, checkpoint every 64 batches, 50% updates: the only workload where shard, pipeline and wal work",
			keyRange: 2 << 20, prefill: 1 << 20, batch: 32768,
			gen:  func(n uint64) workload.Generator { return workload.NewSelfSimilar(n, 0.2) },
			mix:  workload.MixedConfig{UpdateRatio: 0.5},
			warm: 16, verifyEvery: 4,
			stream: true, chunk: 16, checkpointEvery: 64,
		},
		{
			name: "tiered-drift-batch", loop: "closed, 1 caller",
			why:      "drifting hotspot (25% updates) plus 5% uniform reads over 800k keys with 100k resident, batch 16384: tier faults, promotions and demotions on every batch",
			keyRange: 800_000, prefill: 400_000, batch: 16384,
			// All writes fall in the moving window: a write anywhere
			// faults its whole range back in, and uniform writes would
			// keep every range resident.
			gen: func(n uint64) workload.Generator {
				d := workload.NewDrifting(n)
				d.HotFraction = 1
				return d
			},
			mix: workload.MixedConfig{UpdateRatio: 0.25}, background: 0.05,
			// Long enough for one demotion per batch to bring the
			// prefilled keys down to the budget before measuring.
			warm: 80, verifyEvery: 4,
			tiered: true, residentKeys: 100_000,
		},
		{
			name: "served-open", loop: "open, Poisson arrivals at a fixed total rate over nproc TCP connections",
			why:      "TCP server in process, zipfian 0.99 over 1M keys, 25% puts: the request path (wire, batcher wait, batch, encode); batch-path changes predict no change",
			keyRange: 1 << 20, prefill: 1 << 20,
			gen:    zipf(0.99),
			served: true, rate: servedRate, putFrac: 0.25,
		},
	}
}

// scaled shrinks a spec for -quick (smoke test sizes): same shape,
// about 1/64 of the data, every batch verified.
func (s spec) scaled(quick bool) spec {
	if !quick {
		return s
	}
	s.keyRange /= 64
	s.prefill /= 64
	if s.batch > 0 {
		s.batch /= 16
	}
	s.residentKeys /= 64
	s.warm = 2
	s.verifyEvery = 1
	if s.stream {
		s.chunk, s.checkpointEvery = 4, 8
	}
	s.rate /= 10
	return s
}

// options are the qtrans.Options the workload opens its DB with:
// defaults (Full optimisation, 65536-entry cache, gapped layout, all
// kernels on) plus what the workload states.
func (s spec) options(workers int, dir string, met *qtrans.Metrics) qtrans.Options {
	o := qtrans.Options{Workers: workers, Metrics: met}
	if s.stream {
		o.Pipeline = true
		o.Shards = workers
		o.ShardKeyMax = qtrans.Key(s.keyRange - 1)
		o.Durability = qtrans.Durability{Dir: dir, Sync: qtrans.SyncInterval, SyncInterval: 50 * time.Millisecond}
	}
	if s.tiered {
		o.Tiered = qtrans.Tiered{Dir: dir, MaxResidentKeys: s.residentKeys, KeyMax: qtrans.Key(s.keyRange - 1)}
	}
	return o
}

// metricDef names one metric, its unit and which way is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every workload reports from the untraced
// run. BENCHMARK.json adds the regression bound of each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"heap_bytes_per_key", "B/key", "lower"},
}

// perLayer are the metrics of the traced run, named by module. A layer
// a workload does not use reports null (0 on the driver's result line).
var perLayer = []metricDef{
	{"qtrans.run_ns_per_query", "ns", "lower"},
	{"qtrans.alloc_bytes_per_query", "B", "lower"},
	{"qtrans.allocs_per_batch", "count", "lower"},
	{"qtrans.gc_pause_share", "ratio", "lower"},
	{"qtrans.open_s", "s", "lower"},
	{"qtrans.prefill_s", "s", "lower"},
	{"qtrans.latency_p99_ms", "ms", "lower"},
	{"qtrans.checkpoint_p50_ms", "ms", "lower"},
	{"qtrans.recovery_s", "s", "lower"},
	{"qtrans.disk_bytes_per_update", "B", "lower"},
	{"bsp.sort_ns_per_query", "ns", "lower"},
	{"core.transform_ns_per_query", "ns", "lower"},
	{"core.qsat1_ns_per_query", "ns", "lower"},
	{"core.qsat2_ns_per_query", "ns", "lower"},
	{"core.cache_pass_ns_per_query", "ns", "lower"},
	{"core.reduction_ratio", "ratio", "higher"},
	{"core.inferred_share", "ratio", "higher"},
	{"core.batch_wall_p50_us", "us", "lower"},
	{"core.speedup_vs_palm", "ratio", "higher"},
	{"cache.hit_rate", "ratio", "higher"},
	{"cache.evictions_per_batch", "count", "lower"},
	{"cache.flushes_per_batch", "count", "lower"},
	{"cache.probe_ns", "ns", "lower"},
	{"palm.find_ns_per_query", "ns", "lower"},
	{"palm.fence_hit_rate", "ratio", "higher"},
	{"palm.evaluate_ns_per_query", "ns", "lower"},
	{"palm.modify_ns_per_query", "ns", "lower"},
	{"palm.scan_rows_per_scan", "count", "higher"},
	{"palm.baseline_qps", "1/s", "higher"},
	{"btree.splits_per_batch", "count", "lower"},
	{"btree.shifted_slots_per_batch", "count", "lower"},
	{"btree.gap_claims_per_batch", "count", "higher"},
	{"btree.leaf_occupancy_p50_permille", "permille", "higher"},
	{"btree.height", "count", "lower"},
	{"btree.search_ns", "ns", "lower"},
	{"shard.split_ns_per_query", "ns", "lower"},
	{"shard.merge_ns_per_query", "ns", "lower"},
	{"shard.imbalance", "ratio", "lower"},
	{"wal.append_ns_per_query", "ns", "lower"},
	{"wal.fsync_p50_us", "us", "lower"},
	{"wal.fsync_p99_us", "us", "lower"},
	{"wal.fsyncs_per_batch", "count", "lower"},
	{"wal.bytes_per_update", "B", "lower"},
	{"wal.replay_qps", "1/s", "higher"},
	{"tier.faults_per_batch", "count", "lower"},
	{"tier.promotions_per_batch", "count", "lower"},
	{"tier.demotions_per_batch", "count", "lower"},
	{"tier.resident_over_budget", "ratio", "lower"},
	{"tier.disk_bytes_per_cold_key", "B", "lower"},
	{"tier.cold_get_p50_us", "us", "lower"},
	{"tier.hot_get_p50_us", "us", "lower"},
	{"tier.slowdown_vs_memory", "ratio", "higher"},
	{"batcher.op_p50_us", "us", "lower"},
	{"batcher.op_p99_us", "us", "lower"},
	{"batcher.batch_size_p50", "count", "higher"},
	{"batcher.fill_p50_permille", "permille", "higher"},
	{"server.wire_p50_us", "us", "lower"},
	{"server.codec_ns_per_op", "ns", "lower"},
	{"server.closed_loop_qps", "1/s", "higher"},
	{"server.op_p99_us", "us", "lower"},
	{"server.op_p999_us", "us", "lower"},
	{"server.slo_miss_share", "ratio", "lower"},
	{"server.shed_share", "ratio", "lower"},
	{"server.responses_per_accepted", "ratio", "higher"},
	{"server.gen_late_p99_us", "us", "lower"},
	{"bench.gen_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
}
