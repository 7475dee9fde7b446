package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bsp"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/workload"
	"repro/qtrans"
)

// The traced run splits its measured time between an untraced phase
// (the base of trace.overhead_share and core.speedup_vs_palm), the
// traced phase every registry and span number comes from, and the
// stand-alone layer replays.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
	extraShare    = 0.15 // tier: in-memory run; served: batcher-only and closed-loop runs
)

func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// delta is the registry's change over the traced phase.
type delta struct{ a, b metrics.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// hist returns the histogram of the values recorded during the phase.
func (d delta) hist(name string) metrics.HistogramSnapshot {
	a, b := d.a.Histograms[name], d.b.Histograms[name]
	before := map[int64]int64{}
	for _, bk := range a.Buckets {
		before[bk.Lo] = bk.Count
	}
	out := metrics.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Min: b.Min, Max: b.Max}
	for _, bk := range b.Buckets {
		if bk.Count -= before[bk.Lo]; bk.Count > 0 {
			out.Buckets = append(out.Buckets, bk)
		}
	}
	return out
}

// perQuery sets a time metric from a registry histogram's sum, in ns per
// submitted query; a stage that never ran stays null.
func (d delta) perQuery(r *result, metric, hist string, queries int) {
	if h := d.hist(hist); h.Count > 0 {
		r.set(metric, float64(h.Sum)/float64(queries))
	}
}

func setRatio(r *result, metric string, num, den float64) {
	if den > 0 {
		r.set(metric, num/den)
	}
}

// wchar reads the bytes this process has passed to write calls.
func wchar() float64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}

// segBytes sums the WAL segment files of a durability directory.
func segBytes(dir string) (n int64) {
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// runTraced is the traced run of one workload: per-layer metrics and
// benchmark/out/trace-<workload>.json.
func runTraced(s spec, cfg config) (*result, error) {
	tr := newTracer()
	var r *result
	var err error
	if s.served {
		r, err = tracedServed(s, cfg, tr)
	} else {
		r, err = tracedBatch(s, cfg, tr)
	}
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+s.name+".json")); err != nil {
		return nil, err
	}
	r.Samples["spans"] = len(tr.spans)
	return r, nil
}

// untracedQPS measures the workload briefly with tracing and metrics
// off.
func untracedQPS(s spec, cfg config, d time.Duration) (float64, error) {
	e, err := setUp(s, cfg, nil, newMirror(), nil)
	if err != nil {
		return 0, err
	}
	defer e.close()
	p := e.measure(d)
	return median(p.windows), nil
}

func tracedBatch(s spec, cfg config, tr *tracer) (*result, error) {
	r := newResult(s.name)
	baseQPS, err := untracedQPS(s, cfg, share(cfg.measure, untracedShare))
	if err != nil {
		return nil, err
	}

	met := qtrans.NewMetrics()
	e, err := setUp(s, cfg, met, newMirror(), tr)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// A few batches ahead of the phase are kept for the layer replays.
	var kept [][]keys.Query
	for len(kept) < replayBatches {
		var p phase
		e.runBatch(&p, false, -1)
		kept = append(kept, append([]keys.Query(nil), e.qs...))
	}

	var tier0 tier.Stats
	if s.tiered {
		tier0, _ = e.db.TierStats()
	}
	d := delta{a: met.Snapshot()}
	mem0 := stats.CaptureMem()
	w0, seg0, gen0, t0 := wchar(), segBytes(e.dir), e.genTime, time.Now()
	p := e.measure(share(cfg.measure, tracedShare))
	wall := time.Since(t0)
	w1, seg1 := wchar(), segBytes(e.dir)
	gcPause := stats.CaptureMem().Sub(mem0).PauseNs
	d.b = met.Snapshot()
	batches := float64(len(p.lat))
	tracedQPS := median(p.windows)
	sortDurations(p.lat)

	r.set("qtrans.run_ns_per_query", float64(p.wall)/float64(p.queries))
	r.set("qtrans.alloc_bytes_per_query", float64(p.bytes)/float64(p.queries))
	r.set("qtrans.allocs_per_batch", float64(p.mallocs)/batches)
	r.set("qtrans.gc_pause_share", float64(gcPause)/float64(wall))
	r.set("qtrans.open_s", e.open.Seconds())
	r.set("qtrans.prefill_s", e.prefill.Seconds())
	r.set("qtrans.latency_p99_ms", ms(percentile(p.lat, 0.99)))
	r.set("bench.gen_share", float64(e.genTime-gen0)/float64(wall))
	r.set("trace.overhead_share", 1-tracedQPS/baseQPS)
	r.Samples["latency"] = len(p.lat)

	q := p.queries
	d.perQuery(r, "core.qsat1_ns_per_query", "stage_qsat-phase1_ns", q)
	d.perQuery(r, "core.qsat2_ns_per_query", "stage_qsat-phase2_ns", q)
	d.perQuery(r, "core.cache_pass_ns_per_query", "stage_cache_ns", q)
	d.perQuery(r, "palm.find_ns_per_query", "stage_find_ns", q)
	d.perQuery(r, "palm.evaluate_ns_per_query", "stage_evaluate_ns", q)
	d.perQuery(r, "palm.modify_ns_per_query", "stage_modify_ns", q)
	submitted := d.counter("queries_total")
	setRatio(r, "core.reduction_ratio", submitted-d.counter("queries_remaining_total"), submitted)
	setRatio(r, "core.inferred_share", d.counter("inferred_returns_total"), submitted)
	r.set("core.batch_wall_p50_us", float64(d.hist("batch_wall_ns").Quantile(0.5))/1e3)
	setRatio(r, "cache.hit_rate", d.counter("cache_hits_total"), d.counter("cache_hits_total")+d.counter("cache_misses_total"))
	r.set("cache.evictions_per_batch", d.counter("cache_evictions_total")/batches)
	r.set("cache.flushes_per_batch", d.counter("cache_flushes_total")/batches)
	setRatio(r, "palm.fence_hit_rate", d.counter("fence_hits_total"), d.counter("queries_remaining_total"))
	setRatio(r, "palm.scan_rows_per_scan", d.counter("scan_rows_total"), d.counter("scan_queries_total"))
	r.set("btree.splits_per_batch", d.counter("splits_total")/batches)
	r.set("btree.shifted_slots_per_batch", d.counter("shifted_slots_total")/batches)
	r.set("btree.gap_claims_per_batch", d.counter("gap_claims_total")/batches)

	if s.stream {
		// Pipelined shards overlap, so a batch's stages cannot be laid
		// under its span from outside: trace.coverage stays null.
		d.perQuery(r, "shard.split_ns_per_query", "shard_split_ns", q)
		d.perQuery(r, "shard.merge_ns_per_query", "shard_merge_ns", q)
		r.set("shard.imbalance", e.db.ShardStats().Imbalance())
		d.perQuery(r, "wal.append_ns_per_query", "wal_append_ns", q)
		fsync := d.hist("wal_fsync_ns")
		r.set("wal.fsync_p50_us", float64(fsync.Quantile(0.5))/1e3)
		r.set("wal.fsync_p99_us", float64(fsync.Quantile(0.99))/1e3)
		r.set("wal.fsyncs_per_batch", float64(fsync.Count)/batches)
		r.Samples["wal_fsyncs"] = int(fsync.Count)
		// What the appends wrote is the segments' net growth over the
		// phase plus what its checkpoints truncated.
		r.set("wal.bytes_per_update", (float64(seg1-seg0)+float64(p.truncated))/float64(p.updates))
		sortDurations(p.ckpt)
		r.set("qtrans.checkpoint_p50_ms", ms(percentile(p.ckpt, 0.5)))
		r.Samples["checkpoints"] = len(p.ckpt)
	} else {
		r.set("trace.coverage", coverage(tr.spans, "qtrans.Run"))
	}
	if s.stream || s.tiered {
		r.set("qtrans.disk_bytes_per_update", (w1-w0)/float64(p.updates))
	}

	if s.tiered {
		e.tierMetrics(r, tier0, batches)
	}
	if s.stream {
		e.recoveryTail()
	}
	e.m.finalState(e.db)
	e.db.Close()
	e.db = nil
	if s.stream {
		// A fresh registry counts exactly the queries recovery replays.
		replay := qtrans.NewMetrics()
		e.opts.Metrics = replay
		rec, err := e.reopenAndVerify()
		if err == nil {
			r.set("qtrans.recovery_s", rec.Seconds())
			r.set("wal.replay_qps", float64(replay.Snapshot().Counters["queries_total"])/rec.Seconds())
		}
	}

	if s.tiered {
		mem := s
		mem.tiered = false
		memQPS, err := untracedQPS(mem, cfg, share(cfg.measure, extraShare))
		if err != nil {
			return nil, err
		}
		r.set("tier.slowdown_vs_memory", baseQPS/memQPS)
	}

	if err := replayLayers(s, cfg, tr, r, kept); err != nil {
		return nil, err
	}
	if v := r.Metrics["palm.baseline_qps"].Value; v != nil {
		r.set("core.speedup_vs_palm", baseQPS / *v)
	}
	r.finish(e.m)
	return r, nil
}

// tierMetrics reads the cold store's counters over the traced phase and
// times point reads that are served from memory and from disk.
func (e *env) tierMetrics(r *result, before tier.Stats, batches float64) {
	st, _ := e.db.TierStats()
	r.set("tier.faults_per_batch", float64(st.Faults-before.Faults)/batches)
	r.set("tier.promotions_per_batch", float64(st.Promotions-before.Promotions)/batches)
	r.set("tier.demotions_per_batch", float64(st.Demotions-before.Demotions)/batches)
	r.set("tier.resident_over_budget", float64(st.ResidentKeys)/float64(e.s.residentKeys))
	setRatio(r, "tier.disk_bytes_per_cold_key", float64(st.DiskBytes), float64(st.ColdKeys))

	// Point reads across the key space, split by whether the read went
	// to disk (the fault counter rose) or was served from memory.
	sp := e.tr.begin("tier.gets", -1, 0)
	var hot, cold []time.Duration
	faults := st.Faults
	for i := uint64(0); i < 2000; i++ {
		k := qtrans.Key(i * e.s.keyRange / 2000)
		t0 := time.Now()
		v, found := e.db.Get(k)
		d := time.Since(t0)
		if want, has := e.m.o.Get(k); found != has || v != want {
			e.m.fail("get %d: (%d,%v), oracle (%d,%v)", k, v, found, want, has)
		}
		if now, _ := e.db.TierStats(); now.Faults > faults {
			faults = now.Faults
			cold = append(cold, d)
		} else {
			hot = append(hot, d)
		}
	}
	e.tr.end(sp)
	sortDurations(hot)
	sortDurations(cold)
	if len(hot) > 0 {
		r.set("tier.hot_get_p50_us", us(percentile(hot, 0.5)))
	}
	if len(cold) > 0 {
		r.set("tier.cold_get_p50_us", us(percentile(cold, 0.5)))
	}
	r.Samples["tier_hot_gets"], r.Samples["tier_cold_gets"] = len(hot), len(cold)
}

// replayLayers times each module alone on the kept batches through its
// exported functions: the parallel sort, the QSAT transform, the cache
// probes of the transform's survivors, plain PALM on a tree prefilled
// the same way, and serial tree searches. Scans are left out of the
// replays: none of these entry points has a scan operator.
func replayLayers(s spec, cfg config, tr *tracer, r *result, kept [][]keys.Query) error {
	var points [][]keys.Query
	total := 0
	for _, qs := range kept {
		var pq []keys.Query
		for _, q := range qs {
			if q.Op != keys.OpScan {
				pq = append(pq, q)
			}
		}
		points = append(points, keys.Number(pq))
		total += len(pq)
	}
	root := tr.begin("replay", -1, 0)
	defer tr.end(root)
	timed := func(name string, id int, fn func()) time.Duration {
		sp := tr.begin(name, root, id)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.end(sp)
		return d
	}
	pool := bsp.NewPool(cfg.workers)
	defer pool.Close()
	scratch := make([]keys.Query, s.batch)
	rs := keys.NewResultSet(s.batch)

	var sortT, tfT, probeT time.Duration
	probes := 0
	tf := core.NewTransformer(pool)
	topK := cache.New(1<<16, cache.LRU)
	for i, qs := range points {
		cp := scratch[:copy(scratch, qs)]
		sortT += timed("bsp.RadixSortQueries", i, func() { pool.RadixSortQueries(cp) })

		cp = scratch[:copy(scratch, qs)]
		rs.Reset(len(cp))
		var survivors []keys.Query
		tfT += timed("core.Transform", i, func() { survivors = tf.Transform(cp, rs, nil) })

		probes += len(survivors)
		probeT += timed("cache.probe", i, func() {
			for _, q := range survivors {
				switch q.Op {
				case keys.OpInsert:
					topK.WriteInsert(q.Key, q.Value)
				case keys.OpDelete:
					topK.WriteDelete(q.Key)
				default:
					if _, hit := topK.Lookup(q.Key); !hit {
						topK.Admit(q.Key, 0)
					}
				}
			}
		})
	}
	r.set("bsp.sort_ns_per_query", float64(sortT)/float64(total))
	r.set("core.transform_ns_per_query", float64(tfT)/float64(total))
	setRatio(r, "cache.probe_ns", float64(probeT), float64(probes))

	proc, err := palm.New(palm.Config{Workers: cfg.workers, LoadBalance: true}, pool)
	if err != nil {
		return fmt.Errorf("%s: plain PALM replay: %w", s.name, err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	uni := workload.NewUniform(s.keyRange)
	for left := s.prefill; left > 0; {
		n := min(left, 1<<16)
		left -= n
		qs := workload.Prefill(uni, rng, n)
		rs.Reset(len(qs))
		proc.ProcessBatch(qs, rs)
	}
	var palmT time.Duration
	for i, qs := range points {
		cp := scratch[:copy(scratch, qs)]
		rs.Reset(len(cp))
		palmT += timed("palm.ProcessBatch", i, func() { proc.ProcessBatch(cp, rs) })
	}
	r.set("palm.baseline_qps", stats.Throughput(total, palmT))

	tree := proc.Tree()
	r.set("btree.height", float64(tree.Height()))
	var occ []float64
	tree.VisitLeaves(func(entries, capacity int) {
		if capacity > 0 {
			occ = append(occ, float64(entries*1000/capacity))
		}
	})
	r.set("btree.leaf_occupancy_p50_permille", median(occ))
	ks := make([]keys.Key, searchSamples)
	for i := range ks {
		ks[i] = uni.Key(rng)
	}
	searchT := timed("btree.Search", 0, func() {
		for _, k := range ks {
			tree.Search(k)
		}
	})
	r.set("btree.search_ns", float64(searchT)/float64(len(ks)))
	return nil
}

// tracedServed is the traced run of served-open.
func tracedServed(s spec, cfg config, tr *tracer) (*result, error) {
	r := newResult(s.name)
	extra := share(cfg.measure, extraShare)

	// Untraced: the open loop over TCP, then the same schedule straight
	// into the batcher, then a closed loop over TCP for the capacity.
	base, err := setUpServed(s, cfg, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	ops := base.schedules(share(cfg.measure, untracedShare))
	res, _ := openLoop(base.f.sinks(), ops)
	baseQPS := median(summarise(res, share(cfg.measure, untracedShare)).windows)
	base.f.stop()

	svc := base.db.Serve(qtrans.ServiceOptions{})
	batcherSink := sink{
		send: func(q keys.Query) (func() (keys.Result, bool, bool), error) {
			fut, err := svc.Batcher().Submit(q)
			if err != nil {
				return nil, err
			}
			return func() (keys.Result, bool, bool) {
				res, has := fut.Get()
				return res, has, true
			}, nil
		},
		flush: func() error { return nil },
	}
	direct := make([]sink, cfg.workers)
	for i := range direct {
		direct[i] = batcherSink
	}
	ops = base.schedules(extra)
	sp := tr.begin("batcher.open_loop", -1, 0)
	res, _ = openLoop(direct, ops)
	tr.end(sp)
	svc.Close()
	bp := summarise(res, extra)
	r.set("batcher.op_p50_us", us(percentile(bp.lat, 0.5)))
	r.set("batcher.op_p99_us", us(percentile(bp.lat, 0.99)))

	if base.f, err = startFront(base.db, nil, cfg.workers); err != nil {
		base.close()
		return nil, err
	}
	sp = tr.begin("server.closed_loop", -1, 0)
	r.set("server.closed_loop_qps", closedLoop(base, extra))
	tr.end(sp)
	base.f.stop()
	base.close()

	// Traced: registry on, every answer checked.
	met := qtrans.NewMetrics()
	se, err := setUpServed(s, cfg, met, newMirror(), tr)
	if err != nil {
		return nil, err
	}
	defer se.close()
	dur := share(cfg.measure, tracedShare)
	g0 := time.Now()
	ops = se.schedules(dur)
	genT := time.Since(g0)
	d := delta{a: met.Snapshot()}
	sp = tr.begin("measure", -1, 0)
	t0 := time.Now()
	res, start := openLoop(se.f.sinks(), ops)
	wall := time.Since(t0)
	tr.end(sp)
	d.b = met.Snapshot()
	p := summarise(res, dur)
	se.mirrorOps(ops, res, true)
	// One op in 64 becomes a span, from its due time to its response.
	first := len(tr.spans)
	for c := range res {
		for i := 0; i < len(res[c]); i += 64 {
			due := start.Add(ops[c][i].due).Sub(tr.t0)
			tr.spans = append(tr.spans, span{Name: "client.op", StartNS: int64(due), EndNS: int64(due + res[c][i].lat), Parent: sp, ID: i*len(res) + c})
		}
	}
	sort.Slice(tr.spans[first:], func(i, j int) bool { return tr.spans[first+i].StartNS < tr.spans[first+j].StartNS })
	st, stopErr := se.f.stop()
	if stopErr != nil {
		se.m.fail("server shutdown: %v", stopErr)
	}
	se.m.finalState(se.db)

	r.set("qtrans.open_s", se.open.Seconds())
	r.set("qtrans.prefill_s", se.prefill.Seconds())
	r.set("server.op_p99_us", us(percentile(p.lat, 0.99)))
	r.set("server.op_p999_us", us(percentile(p.lat, 0.999)))
	r.set("server.slo_miss_share", float64(p.sloMiss)/float64(len(p.lat)))
	setRatio(r, "server.shed_share", float64(st.Shed), float64(st.Accepted))
	setRatio(r, "server.responses_per_accepted", float64(st.Responses), float64(st.Accepted))
	r.set("server.gen_late_p99_us", us(percentile(p.late, 0.99)))
	r.set("server.wire_p50_us", us(percentile(p.lat, 0.5))-*r.Metrics["batcher.op_p50_us"].Value)
	r.set("server.codec_ns_per_op", codecLoop(tr))
	r.set("bench.gen_share", float64(genT)/float64(wall))
	r.set("trace.overhead_share", 1-median(p.windows)/baseQPS)
	r.Samples["latency"] = len(p.lat)

	submitted := d.counter("queries_total")
	setRatio(r, "core.reduction_ratio", submitted-d.counter("queries_remaining_total"), submitted)
	setRatio(r, "core.inferred_share", d.counter("inferred_returns_total"), submitted)
	r.set("core.batch_wall_p50_us", float64(d.hist("batch_wall_ns").Quantile(0.5))/1e3)
	setRatio(r, "cache.hit_rate", d.counter("cache_hits_total"), d.counter("cache_hits_total")+d.counter("cache_misses_total"))
	r.set("batcher.batch_size_p50", float64(d.hist("batcher_batch_size").Quantile(0.5)))
	r.set("batcher.fill_p50_permille", float64(d.hist("batcher_fill_permille").Quantile(0.5)))
	if late := us(percentile(p.late, 0.99)); late > genLateLimitUS {
		r.Warning = fmt.Sprintf("open-loop generator ran %.0f us late at p99 (disturbed above %d)", late, genLateLimitUS)
	}
	r.finish(se.m)
	return r, nil
}

// closedLoop drives every connection with a window of 64 requests —
// send 64, flush, wait for all — for d and returns completed ops/s.
func closedLoop(se *servedEnv, d time.Duration) float64 {
	const window = 64
	counts := make([]int, len(se.f.clients))
	done := make(chan struct{})
	start := time.Now()
	for c, cl := range se.f.clients {
		go func() {
			defer func() { done <- struct{}{} }()
			for time.Since(start) < d {
				var futs [window]*client.Future
				for i := range futs {
					k := se.gens[c]()
					f, err := cl.Do(keys.Search(k))
					if err != nil {
						return
					}
					futs[i] = f
				}
				if cl.Flush() != nil {
					return
				}
				for _, f := range futs {
					if _, err := f.Wait(); err != nil {
						return
					}
				}
				counts[c] += window
			}
		}()
	}
	total := 0
	for range se.f.clients {
		<-done
	}
	wall := time.Since(start)
	for _, n := range counts {
		total += n
	}
	return float64(total) / wall.Seconds()
}

// codecLoop times one request and one response through the wire codec:
// encode, frame read, decode, both ways.
func codecLoop(tr *tracer) float64 {
	const n = 200_000
	sp := tr.begin("server.codec", -1, 0)
	defer tr.end(sp)
	var buf, scratch []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf = server.AppendRequest(buf[:0], uint64(i), keys.Insert(keys.Key(i), keys.Value(i)))
		body, sc, _ := server.ReadFrame(bytes.NewReader(buf), scratch, server.ReqBodyLen)
		req, _ := server.DecodeRequest(body)
		buf = server.AppendResponse(buf[:0], server.Response{ID: req.ID, Recorded: true, Found: true, Value: req.Q.Value})
		body, scratch, _ = server.ReadFrame(bytes.NewReader(buf), sc, server.MaxFrameLen)
		if resp, _ := server.DecodeResponse(body); resp.ID != uint64(i) {
			return 0 // unreachable unless the codec is broken; the oracle check catches that
		}
	}
	return float64(time.Since(t0)) / n
}
