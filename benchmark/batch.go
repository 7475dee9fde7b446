package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/keys"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/qtrans"
)

// env is one opened, prefilled and warmed DB with the generator state
// and the oracle mirror that follow it.
type env struct {
	s    spec
	db   *qtrans.DB
	opts qtrans.Options
	dir  string
	tr   *tracer

	gen     workload.Generator
	uniform workload.Generator // prefill and background keys
	rng     *rand.Rand
	qs      []keys.Query // the batch being generated; the DB gets a copy
	m       *mirror      // nil in a set-up rehearsal

	open, prefill, warm time.Duration // time inside DB calls during set-up
	genTime             time.Duration // generation + batch building in the measured phase
	batches             int           // batches submitted so far (span and checkpoint ids)
}

// phase is what one measured phase of a batch workload yields.
type phase struct {
	lat     []time.Duration // per batch: Run call, or submit -> callback
	windows []float64       // queries/s of consecutive windows
	wall    time.Duration
	queries int
	updates int
	mallocs uint64 // inside DB calls (traced run only)
	bytes   uint64
	ckpt    []time.Duration
	// truncated is the WAL segment bytes checkpoints removed (traced run).
	truncated int64
}

func tempDir(s spec) (string, error) {
	if !s.stream && !s.tiered {
		return "", nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "data-")
}

// setUp opens the DB, prefills it and runs the warm-up batches. Only
// time spent inside DB calls counts as set-up time: generating inputs
// and mirroring them into the oracle is the benchmark's own work.
func setUp(s spec, cfg config, met *qtrans.Metrics, m *mirror, tr *tracer) (*env, error) {
	dir, err := tempDir(s)
	if err != nil {
		return nil, err
	}
	e := &env{s: s, dir: dir, m: m, tr: tr,
		rng:  rand.New(rand.NewSource(cfg.seed)),
		opts: s.options(cfg.workers, dir, met)}
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)

	sp := tr.begin("qtrans.Open", root, 0)
	t0 := time.Now()
	e.db, err = qtrans.Open(e.opts)
	e.open = time.Since(t0)
	tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("%s: open: %w", s.name, err)
	}

	sp = tr.begin("prefill", root, 0)
	e.uniform = workload.NewUniform(s.keyRange)
	for left := s.prefill; left > 0; {
		n := min(left, 1<<16)
		left -= n
		qs := workload.Prefill(e.uniform, e.rng, n)
		if m != nil {
			m.apply(qs)
		}
		b := toBatch(qs)
		t0 = time.Now()
		e.db.Run(b)
		e.prefill += time.Since(t0)
	}
	if s.stream {
		t0 = time.Now()
		err = e.db.Checkpoint()
		e.prefill += time.Since(t0)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("%s: checkpoint after prefill: %w", s.name, err)
		}
	}
	tr.end(sp)

	if s.served {
		return e, nil // the served path warms through its own front end
	}
	e.gen = s.gen(s.keyRange)
	e.qs = make([]keys.Query, s.batch)
	sp = tr.begin("warmup", root, 0)
	var w phase
	if s.stream {
		for n := 0; n < s.warm; n += s.chunk {
			w.wall += e.streamChunk(&w, false)
		}
	} else {
		for n := 0; n < s.warm; n++ {
			e.runBatch(&w, false, sp)
		}
	}
	e.warm = w.wall
	tr.end(sp)
	runtime.GC()
	return e, nil
}

func (e *env) close() {
	if e.db != nil {
		e.db.Close()
		e.db = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// fill generates the next batch into e.qs: the workload's mix from its
// generator, then its share of read-only background over the key range.
func (e *env) fill() {
	n := len(e.qs) - int(e.s.background*float64(len(e.qs)))
	workload.FillBatchMixed(e.gen, e.rng, e.qs[:n], e.s.mix)
	workload.FillBatchMixed(e.uniform, e.rng, e.qs[n:], workload.MixedConfig{})
}

// toBatch builds the facade's batch from generated queries.
func toBatch(qs []keys.Query) *qtrans.Batch {
	b := qtrans.NewBatch()
	for _, q := range qs {
		switch q.Op {
		case keys.OpSearch:
			b.Search(q.Key)
		case keys.OpInsert:
			b.Insert(q.Key, q.Value)
		case keys.OpDelete:
			b.Delete(q.Key)
		case keys.OpScan:
			b.Scan(q.Key, q.Key2, q.Value)
		case keys.OpRMW:
			if q.RMW == keys.RMWSetIfAbsent {
				b.SetIfAbsent(q.Key, q.Value)
			} else {
				b.AddDelta(q.Key, q.Value)
			}
		}
	}
	return b
}

func countUpdates(qs []keys.Query) (n int) {
	for _, q := range qs {
		if q.Op.IsDefining() {
			n++
		}
	}
	return n
}

// stageSpans are the engine stages in pipeline order with the layer
// each belongs to.
var stageSpans = [...]string{
	stats.StageSort:     "bsp.sort",
	stats.StageQSAT1:    "core.qsat1",
	stats.StageQSAT2:    "core.qsat2",
	stats.StageCache:    "core.cache_pass",
	stats.StageFind:     "palm.find",
	stats.StageEvaluate: "palm.evaluate",
	stats.StageModify:   "palm.modify",
}

// call times fn as one call into the DB under a span; the traced run
// also counts the allocations made inside it.
func (e *env) call(p *phase, name string, parent int, fn func()) (sp int, d time.Duration) {
	var m0 stats.MemSnapshot
	if e.tr != nil {
		m0 = stats.CaptureMem()
	}
	sp = e.tr.begin(name, parent, e.batches)
	t0 := time.Now()
	fn()
	d = time.Since(t0)
	e.tr.end(sp)
	if e.tr != nil {
		m := stats.CaptureMem().Sub(m0)
		p.mallocs += m.Allocs
		p.bytes += m.Bytes
	}
	return sp, d
}

// runBatch generates one batch, times DB.Run on it and mirrors it.
func (e *env) runBatch(p *phase, measured bool, parent int) {
	g0 := time.Now()
	e.fill()
	b := toBatch(e.qs)
	e.genTime += time.Since(g0)

	var res *qtrans.Results
	sp, d := e.call(p, "qtrans.Run", parent, func() { res = e.db.Run(b) })
	if e.tr != nil {
		// The engine times its own stages; they ran one after another
		// inside the call, so they are laid end to end under its span.
		st := e.db.LastBatchStats()
		var off time.Duration
		for stage, name := range stageSpans {
			off = e.tr.add(name, sp, e.batches, off, st.Elapsed[stage])
		}
	}
	p.lat = append(p.lat, d)
	p.wall += d
	p.queries += len(e.qs)
	p.updates += countUpdates(e.qs)
	e.mirrorBatch(e.qs, res, measured)
	e.batches++
}

// mirrorBatch keeps the oracle in step; every verifyEvery-th batch of
// the measured phase has its answers compared.
func (e *env) mirrorBatch(qs []keys.Query, got answers, measured bool) {
	if e.m == nil {
		return
	}
	if measured {
		e.m.attempted += len(qs)
	}
	if got != nil && e.batches%e.s.verifyEvery == 0 {
		e.m.check(qs, got)
	} else {
		e.m.apply(qs)
	}
}

// copied holds a stream batch's answers past the callback.
type copied struct {
	res []qtrans.Result
	ok  []bool
}

func (c *copied) Search(pos int) (qtrans.Result, bool) { return c.res[pos], c.ok[pos] }
func (c *copied) Scan(int) ([]qtrans.KV, bool)         { return nil, false }

// streamChunk generates chunk batches ahead, streams them through one
// RunStream call and mirrors them afterwards. A batch's latency runs
// from the moment the caller offers it to the moment its callback
// starts; the returned wall is the RunStream call.
func (e *env) streamChunk(p *phase, measured bool) time.Duration {
	s := e.s
	g0 := time.Now()
	gen := make([][]keys.Query, s.chunk)
	bs := make([]*qtrans.Batch, s.chunk)
	pos := make(map[*qtrans.Batch]int, s.chunk)
	for i := range gen {
		e.fill()
		gen[i] = append([]keys.Query(nil), e.qs...)
		bs[i] = toBatch(e.qs)
		pos[bs[i]] = i
	}
	e.genTime += time.Since(g0)

	offered := make([]time.Time, s.chunk)
	done := make([]time.Time, s.chunk)
	kept := make([]*copied, s.chunk)
	in := make(chan *qtrans.Batch)
	_, wall := e.call(p, "qtrans.RunStream", -1, func() {
		go func() {
			for i, b := range bs {
				offered[i] = time.Now()
				in <- b
			}
			close(in)
		}()
		e.db.RunStream(in, func(b *qtrans.Batch, r *qtrans.Results) {
			i := pos[b]
			done[i] = time.Now()
			if e.m != nil && (e.batches+i)%s.verifyEvery == 0 {
				c := &copied{res: make([]qtrans.Result, len(gen[i])), ok: make([]bool, len(gen[i]))}
				for j := range c.res {
					c.res[j], c.ok[j] = r.Search(j)
				}
				kept[i] = c
			}
		})
	})

	for i, qs := range gen {
		p.lat = append(p.lat, done[i].Sub(offered[i]))
		p.updates += countUpdates(qs)
		var got answers
		if kept[i] != nil {
			got = kept[i]
		}
		e.mirrorBatch(qs, got, measured)
		e.batches++
	}
	p.queries += s.chunk * s.batch
	return wall
}

// checkpoint times one DB.Checkpoint.
func (e *env) checkpoint(p *phase) time.Duration {
	var seg0 int64
	if e.tr != nil {
		seg0 = segBytes(e.dir)
	}
	sp := e.tr.begin("qtrans.Checkpoint", -1, e.batches)
	t0 := time.Now()
	err := e.db.Checkpoint()
	d := time.Since(t0)
	e.tr.end(sp)
	if e.tr != nil {
		p.truncated += seg0 - segBytes(e.dir)
	}
	if err != nil && e.m != nil {
		e.m.fail("checkpoint: %v", err)
	}
	p.ckpt = append(p.ckpt, d)
	return d
}

// recoveryTail leaves the durability directory in the same shape after
// every run: a fresh snapshot followed by two chunks of logged batches,
// so that reopening always loads one snapshot and replays as many.
func (e *env) recoveryTail() {
	var tail phase
	e.checkpoint(&tail)
	e.streamChunk(&tail, false)
	e.streamChunk(&tail, false)
}

// measure runs batches for the given wall time.
func (e *env) measure(d time.Duration) phase {
	var p phase
	root := e.tr.begin("measure", -1, 0)
	for start := time.Now(); time.Since(start) < d; {
		if s := e.s; s.stream {
			// A checkpoint that falls due counts into its chunk's wall.
			wall := e.streamChunk(&p, true)
			if e.batches%s.checkpointEvery < s.chunk {
				wall += e.checkpoint(&p)
			}
			p.wall += wall
			p.windows = append(p.windows, stats.Throughput(s.chunk*s.batch, wall))
		} else {
			e.runBatch(&p, true, root)
		}
	}
	e.tr.end(root)
	if !e.s.stream {
		for i := 0; i+windowBatches <= len(p.lat); i += windowBatches {
			var w time.Duration
			for _, l := range p.lat[i : i+windowBatches] {
				w += l
			}
			p.windows = append(p.windows, stats.Throughput(windowBatches*e.s.batch, w))
		}
		if len(p.windows) == 0 { // -quick: fewer batches than one window
			p.windows = append(p.windows, stats.Throughput(p.queries, p.wall))
		}
	}
	return p
}

// retainedHeap closes the DB and returns the heap it was holding: live
// heap with it open minus live heap once it is closed and dropped. The
// benchmark's buffers and the oracle are alive at both readings.
func retainedHeap(closeDB func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	closeDB()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return float64(m0.HeapAlloc) - float64(m1.HeapAlloc)
}

// setUpTimes sets a workload up reps times and returns each set-up's
// seconds; setup_s is their median. All but the last are torn down at
// once; the last gets the oracle mirror and is the one measured.
func setUpTimes(reps int, one func(m *mirror) (seconds float64, discard func(), err error)) ([]float64, error) {
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		var m *mirror
		if rep == reps-1 {
			m = newMirror()
		}
		s, discard, err := one(m)
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
		if m == nil {
			discard()
			runtime.GC()
		}
	}
	return secs, nil
}

// runBatchWorkload is one untraced run of a batch or stream workload.
func runBatchWorkload(s spec, cfg config) (*result, error) {
	r := newResult(s.name)
	var e *env
	setups, err := setUpTimes(cfg.setupReps, func(m *mirror) (float64, func(), error) {
		var err error
		if e, err = setUp(s, cfg, nil, m, nil); err != nil {
			return 0, nil, err
		}
		return (e.open + e.prefill + e.warm).Seconds(), e.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	p := e.measure(cfg.measure)

	if s.stream {
		e.recoveryTail()
	}
	keysStored := e.db.Len()
	e.m.finalState(e.db)
	heap := retainedHeap(func() { e.db.Close(); e.db = nil })
	if s.stream {
		e.reopenAndVerify()
	}

	sortDurations(p.lat)
	r.set("setup_s", median(setups))
	r.set("throughput_qps", median(p.windows))
	r.set("latency_p50_ms", ms(percentile(p.lat, 0.50)))
	r.set("latency_p95_ms", ms(percentile(p.lat, 0.95)))
	r.set("heap_bytes_per_key", heap/float64(keysStored))
	r.Samples["latency"] = len(p.lat)
	r.Samples["throughput_windows"] = len(p.windows)
	r.Samples["setups"] = len(setups)
	r.finish(e.m)
	return r, nil
}

// reopenAndVerify recovers the durability directory of a closed stream
// run, compares the recovered state with the oracle and returns the
// time recovery took.
func (e *env) reopenAndVerify() (recovery time.Duration, err error) {
	sp := e.tr.begin("qtrans.Open(recover)", -1, 0)
	t0 := time.Now()
	db, err := qtrans.Open(e.opts)
	recovery = time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		e.m.fail("reopen: %v", err)
		return recovery, err
	}
	e.m.finalState(db)
	db.Close()
	return recovery, nil
}
