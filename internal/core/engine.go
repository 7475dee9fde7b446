package core

import (
	"fmt"
	"sort"

	"repro/internal/bsp"
	"repro/internal/btree"
	"repro/internal/cache"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
	"repro/internal/stats"
)

// Mode selects how much of QTrans the Engine applies, matching the
// configurations compared in Fig. 14.
type Mode int

// Engine modes.
const (
	// Original runs the unmodified PALM pipeline (the paper's "org").
	Original Mode = iota
	// Intra adds the parallel intra-batch QTrans of §V-A ("intra").
	Intra
	// IntraInter additionally enables the inter-batch top-K cache of
	// §V-B ("inter").
	IntraInter
	// Adaptive runs IntraInter's passes only where they pay: a batch
	// whose duplicate share is below the gate's crossover skips QSAT
	// and takes org's path, and the cache is a mode that turns off
	// while recent batches stay below it (gate.go).
	Adaptive
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case Original:
		return "org"
	case Intra:
		return "intra"
	case IntraInter:
		return "inter"
	case Adaptive:
		return "adaptive"
	default:
		return "mode?"
	}
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Mode selects Original, Intra, IntraInter, or Adaptive.
	Mode Mode
	// Palm configures the underlying batch processor.
	Palm palm.Config
	// CacheCapacity is the top-K cache size (K); used only in
	// IntraInter and Adaptive modes. <= 0 disables the cache there.
	CacheCapacity int
	// Pipeline enables two-stage pipelined stream execution: while the
	// tree stages of batch N run on the engine's pool, the sort + QSAT
	// transform of batch N+1 runs concurrently on a second pool. Only
	// ProcessStream consults this; ProcessBatch is always serial. See
	// pipeline.go for the handoff rule that keeps semantics identical.
	Pipeline bool
	// Metrics, when non-nil, receives per-batch timings and counters
	// (batch wall, per-stage wall, query/cache/fence counters). Nil
	// keeps the batch path identical to the uninstrumented build.
	Metrics *metrics.Registry
}

// Engine is the integrated query processing system: PALM with QTrans,
// the full system evaluated in §VI. Batches submitted to ProcessBatch
// are evaluated with semantics identical to serial in-order evaluation.
type Engine struct {
	cfg  EngineConfig
	pool *bsp.Pool
	proc *palm.Processor
	topK *cache.TopK
	// cacheOn is the cache mode of the last applied batch (stage B's
	// copy of the gate's decision). While it is off the cache is empty.
	cacheOn bool

	// adapt is the Adaptive mode's gate, owned by transform (stage A).
	adapt adaptiveGate

	// serial is the batch plan ProcessBatch runs: the engine's own
	// Transformer and scan overlay, recording into st.
	serial batchPlan

	// probes is the cache pass's per-worker phase-1 scratch and probe
	// its superstep; flushQ holds its phase-2 flushes.
	probes []probeScratch
	probe  probeJob
	flushQ []keys.Query

	// flushRS is the empty result sink cache write-backs (defines only,
	// never answered) are applied with.
	flushRS *keys.ResultSet

	st  *stats.Batch
	met *engineMetrics // nil when metrics are off

	// Pipelined stream execution state (nil until the first pipelined
	// ProcessStream call; see pipeline.go).
	tfPool *bsp.Pool
	slots  []*pipeSlot
}

// NewEngine builds an Engine. The Engine owns its pool and processor;
// release them with Close.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return newEngine(cfg, nil)
}

// NewEngineWithTree builds an Engine over an existing tree (e.g. one
// restored from a snapshot or bulk-loaded).
func NewEngineWithTree(cfg EngineConfig, tree *btree.Tree) (*Engine, error) {
	if tree == nil {
		return nil, fmt.Errorf("core: NewEngineWithTree with nil tree")
	}
	return newEngine(cfg, tree)
}

func newEngine(cfg EngineConfig, tree *btree.Tree) (*Engine, error) {
	pool := bsp.NewPool(cfg.Palm.Workers)
	var proc *palm.Processor
	if tree != nil {
		proc = palm.NewWithTree(cfg.Palm, tree, pool)
	} else {
		var err error
		proc, err = palm.New(cfg.Palm, pool)
		if err != nil {
			pool.Close()
			return nil, err
		}
	}
	e := &Engine{
		cfg:  cfg,
		pool: pool,
		proc: proc,
		st:   stats.NewBatch(pool.N()),

		flushRS: keys.NewResultSet(0),
	}
	e.serial = e.newPlan(pool, e.st)
	e.met = newEngineMetrics(cfg.Metrics)
	if (cfg.Mode == IntraInter || cfg.Mode == Adaptive) && cfg.CacheCapacity > 0 {
		e.topK = cache.New(cfg.CacheCapacity, cache.LRU)
		e.cacheOn = true
		e.probes = make([]probeScratch, pool.N())
		e.probe.init(e)
	}
	e.adapt = newAdaptiveGate()
	return e, nil
}

// Close releases the Engine's resources.
func (e *Engine) Close() {
	e.pool.Close()
	if e.tfPool != nil {
		e.tfPool.Close()
	}
}

// Stats returns the combined per-stage statistics of the most recently
// processed batch.
func (e *Engine) Stats() *stats.Batch { return e.st }

// Pool returns the engine's BSP pool.
func (e *Engine) Pool() *bsp.Pool { return e.pool }

// Mode returns the engine's mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// ProcessBatch evaluates one batch, writing search results into rs
// (which must have been Reset to len(qs)). qs is reordered in place.
func (e *Engine) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	if e.met == nil {
		e.processBatch(qs, rs)
		return
	}
	start := e.met.reg.Now()
	e.processBatch(qs, rs)
	e.met.recordBatch(e.st, e.met.reg.Since(start))
}

// inlineBatch is the batch size below which processBatch runs every
// superstep on the calling goroutine (bsp.Pool.SetInline): under it,
// waking the workers for each of a batch's supersteps costs more than
// the parallel share of the work saves. It is the low end of the
// crossover BenchmarkProcessBatchSize measures (DESIGN.md §4 item 7).
const inlineBatch = 256

func (e *Engine) processBatch(qs []keys.Query, rs *keys.ResultSet) {
	e.st.Reset()
	e.st.BatchSize = len(qs)
	if len(qs) == 0 {
		return
	}

	// Callers keep Flush off a batch in flight (the shard engine's
	// scheduling gate spans the whole batch), so a snapshot's Flush on
	// the same pool always finds worker scheduling restored.
	if len(qs) < inlineBatch {
		e.pool.SetInline(true)
		defer e.pool.SetInline(false)
	}
	e.transform(&e.serial, qs, rs)
	e.apply(&e.serial, rs)
}

// batchPlan carries one batch from transform to apply: the
// Transformer that reduced it (its Router broadcasts the survivors'
// answers), the batch's scans and sorted points, the stats block
// transform records into, the queries that still need the tree, and
// the plan's two decisions. The engine owns one for ProcessBatch; each
// pipeline slot owns another, since stage A transforms the next batch
// while stage B applies this one.
type batchPlan struct {
	tf        *Transformer
	ov        scanOverlay
	st        *stats.Batch
	remaining []keys.Query
	// extended marks a batch carrying scans or RMWs: those read the
	// tree directly, so apply drains the cache and skips the cache pass.
	extended bool
	// reduced marks a batch QSAT ran over: remaining is the reduced
	// batch and its representatives' answers are broadcast. Otherwise
	// remaining is the whole sorted batch, for org's path.
	reduced bool
	// cacheOn is the cache mode the batch runs under; apply switches
	// the engine's mode to it first.
	cacheOn bool
}

func (e *Engine) newPlan(pool *bsp.Pool, st *stats.Batch) batchPlan {
	return batchPlan{tf: NewTransformer(pool), st: st}
}

// transform is the tree- and cache-independent half of a non-empty
// batch (stage A in pipelined execution). Scans are split out first
// (overlay.go; timed as StageQSAT2, since it is inference); the point
// queries are then sorted once, in place — Original mode stops there
// and sends all of them to the tree, the QTrans modes run the one-pass
// QSAT over them, writing inferred answers into rs, and Adaptive mode
// first asks its gate whether to. The sorted points stay in the plan:
// apply's scan pass reads the scans' defines off them.
func (e *Engine) transform(p *batchPlan, qs []keys.Query, rs *keys.ResultSet) {
	scan, rmw := hasScanOrRMW(qs)
	p.extended = scan || rmw
	p.ov.scans = p.ov.scans[:0]
	if scan {
		sw := p.st.Timer(stats.StageQSAT2)
		qs = p.ov.build(qs)
		sw.Stop()
	}
	sortStage := stats.StageQSAT1 // the QTrans sort keeps its stage name
	if e.cfg.Mode == Original {
		sortStage = stats.StageSort
	}
	sw := p.st.Timer(sortStage)
	p.tf.sort(qs)
	sw.Stop()
	p.reduced, p.cacheOn = e.cfg.Mode != Original, e.topK != nil
	if e.cfg.Mode == Adaptive {
		sw = p.st.Timer(stats.StageQSAT2)
		p.reduced, p.cacheOn = e.adapt.decide(duplicateShare(qs), len(qs))
		sw.Stop()
		p.cacheOn = p.cacheOn && e.topK != nil
		if !p.reduced {
			p.st.QSATSkipped = 1
		}
	}
	p.remaining = qs
	if p.reduced {
		p.remaining = p.tf.reduce(qs, rs, p.st)
	}
}

// apply is the tree half of a transformed batch (stage B in pipelined
// execution), run strictly in batch order. Its counters and timings go
// to e.st. In order:
//
//   - the engine's cache mode follows the plan's; switching it off
//     drains the cache, so an unreduced batch (planned only with the
//     mode off) never meets a non-empty cache;
//   - a scan/RMW batch drains the top-K cache: scans and RMWs read the
//     tree directly, so clean residents would go stale the moment the
//     batch mutates the tree underneath them (the cache's contract is
//     point-only, so such batches pay full tree price);
//   - every scan is answered in one EvalScans superstep: it walks the
//     pre-batch tree once, merging in the defines that precede it from
//     the sorted points, and writes its final rows;
//   - a point batch with the cache on runs the cache pass;
//   - the queries left run as one PALM pass over the sorted batch
//     (unreduced), or as one pass over the reduced batch whose
//     representatives' answers are then broadcast.
func (e *Engine) apply(p *batchPlan, rs *keys.ResultSet) {
	if p.cacheOn != e.cacheOn {
		if !p.cacheOn {
			e.drainCache()
		}
		e.cacheOn = p.cacheOn
		e.st.CacheModeSwitches++
	}
	if p.cacheOn {
		e.st.CacheOn = 1
	}
	if p.extended {
		e.drainCache()
	}
	remaining := p.remaining
	if len(p.ov.scans) > 0 {
		e.st.ScanQueries = len(p.ov.scans)
		e.st.ScanRows = e.proc.EvalScans(p.ov.scans, p.ov.points, rs)
		e.mergeProcStats(e.st)
	}
	if p.cacheOn && !p.extended {
		sw := e.st.Timer(stats.StageCache)
		remaining = e.cachePass(remaining, rs, &p.tf.Router, e.st)
		sw.Stop()
	}
	e.st.RemainingQueries = len(remaining) + len(p.ov.scans)
	if p.reduced {
		e.proc.ProcessTransformed(remaining, rs)
		p.tf.Broadcast(rs)
	} else {
		e.proc.ProcessBatchSorted(remaining, rs)
	}
	e.mergeProcStats(e.st)
}

// drainCache empties the top-K cache while its mode is on, applying
// its dirty state to the tree.
func (e *Engine) drainCache() {
	if e.cacheOn {
		e.writeBack(e.topK.Drain())
		e.st.CacheDrains++
	}
}

// writeBack applies cache flush queries to the tree in key order.
// Flushes carry Idx -1 and are not logged — they re-apply state from
// previously committed batches.
func (e *Engine) writeBack(fl []keys.Query) {
	if len(fl) == 0 {
		return
	}
	e.pool.RadixSortQueries(fl)
	e.proc.ProcessTransformed(fl, e.flushRS)
}

// mergeProcStats folds the processor's stage timings, leaf-op counters
// and Stage-1 fence hits into st.
func (e *Engine) mergeProcStats(st *stats.Batch) {
	ps := e.proc.Stats()
	for _, s := range stats.Stages() {
		st.Elapsed[s] += ps.Elapsed[s]
	}
	for i, v := range ps.LeafOps {
		st.LeafOps[i] += v
	}
	st.FenceHits += ps.FenceHits
	st.Splits += ps.Splits
	st.GapClaims += ps.GapClaims
	st.ShiftedSlots += ps.ShiftedSlots
}

// cachePass runs the inter-batch top-K cache over the QTrans-reduced
// batch (§V-B): per distinct key the reduced batch holds at most one
// representative search followed by at most one defining query.
// Resident keys are served entirely from the cache; defining queries on
// non-resident keys are admitted (write-back), with evicted dirty
// entries re-emitted as flush queries that are merged, in key order and
// ahead of same-key survivors, into the returned sequence.
//
// The pass has two phases. Phase 1 (probeCache) probes every run's key
// in parallel and changes no table structure; phase 2 (admitCache)
// admits the pending defines serially, in key order, evicting as it
// goes. Every probe therefore sees the pre-batch cache: no search can
// meet a key this same pass has already flushed, so a miss search is
// answered by Stage 1 find against the pre-batch tree, which still
// holds that key's pre-batch state (DESIGN.md §4 item 7).
//
// rt is the Router of the plan that transformed this batch and st
// receives the cache and inferred-return counters.
func (e *Engine) cachePass(remaining []keys.Query, rs *keys.ResultSet, rt *Router, st *stats.Batch) []keys.Query {
	out := e.probeCache(remaining, rs, rt, st)
	e.admitCache(st)
	return e.mergeFlushes(out)
}

// probeScratch is one worker's phase-1 state, reused across batches.
type probeScratch struct {
	// admits holds the defines on non-resident keys, in key order.
	admits []keys.Query
	// kept is how many surviving searches the worker compacted to the
	// front of its chunk.
	kept                   int
	hits, misses, inferred int
}

// probe runs phase 1 over one run-aligned chunk of the reduced batch:
// each run's key is probed once; a resident key answers its search
// from the pre-batch entry and takes its define in place, a
// non-resident key's search is compacted to the chunk's front (for the
// tree) and its define queued for admission.
func (ps *probeScratch) probe(c *cache.TopK, qs []keys.Query, rs *keys.ResultSet, rt *Router) {
	ps.admits = ps.admits[:0]
	ps.kept, ps.hits, ps.misses, ps.inferred = 0, 0, 0, 0
	// Compaction writes stay at or behind the run being read.
	keys.KeyRuns(qs, func(lo, hi int) {
		entry, slot, resident := c.Probe(qs[lo].Key)
		if resident {
			ps.hits++
		} else {
			ps.misses++
		}
		for _, q := range qs[lo:hi] {
			switch {
			case q.Op == keys.OpSearch && !resident:
				qs[ps.kept] = q
				ps.kept++
			case q.Op == keys.OpSearch && entry.Tombstone:
				ps.inferred += rt.Resolve(rs, q.Idx, 0, false)
			case q.Op == keys.OpSearch:
				ps.inferred += rt.Resolve(rs, q.Idx, entry.Value, true)
			case resident:
				c.Define(slot, q.Value, q.Op == keys.OpDelete)
			default:
				ps.admits = append(ps.admits, q)
			}
		}
	})
}

// probeJob is phase 1's superstep and the batch it reads. The step is
// built once, so a batch hands the pool no new closure.
type probeJob struct {
	step   func(tid int)
	qs     []keys.Query
	rs     *keys.ResultSet
	rt     *Router
	bounds []int
}

func (j *probeJob) init(e *Engine) {
	j.bounds = make([]int, len(e.probes)+1)
	j.step = func(tid int) {
		e.probes[tid].probe(e.topK, j.qs[j.bounds[tid]:j.bounds[tid+1]], j.rs, j.rt)
	}
}

// probeCache is phase 1: one superstep over run-aligned chunks of the
// reduced batch (a key's run stays on one worker, so no two workers
// touch one slot). It then folds the workers' counters into st and
// joins their surviving searches, in key order, at the front of
// remaining, which it returns.
func (e *Engine) probeCache(remaining []keys.Query, rs *keys.ResultSet, rt *Router, st *stats.Batch) []keys.Query {
	j := &e.probe
	bounds := runAlignedBounds(remaining, j.bounds)
	j.qs, j.rs, j.rt = remaining, rs, rt
	e.pool.Run(j.step)
	j.qs, j.rs, j.rt = nil, nil, nil
	n, hits, misses := 0, 0, 0
	for w := range e.probes {
		ps := &e.probes[w]
		n += copy(remaining[n:], remaining[bounds[w]:bounds[w]+ps.kept])
		hits += ps.hits
		misses += ps.misses
		st.InferredReturns += ps.inferred
	}
	e.topK.Count(hits, misses)
	st.CacheHits += hits
	st.CacheMisses += misses
	return remaining[:n]
}

// admitCache is phase 2: it admits the queued defines serially, in key
// order (the workers' chunks are in key order), collecting the dirty
// evictions' flush queries in e.flushQ.
func (e *Engine) admitCache(st *stats.Batch) {
	e.flushQ = e.flushQ[:0]
	_, _, ev := e.topK.Stats()
	for w := range e.probes {
		for _, q := range e.probes[w].admits {
			var flush keys.Query
			var evicted bool
			if q.Op == keys.OpDelete {
				flush, evicted = e.topK.WriteDelete(q.Key)
			} else {
				flush, evicted = e.topK.WriteInsert(q.Key, q.Value)
			}
			if evicted {
				e.flushQ = append(e.flushQ, flush)
			}
		}
	}
	_, _, ev2 := e.topK.Stats()
	st.CacheEvictions += int(ev2 - ev)
	st.CacheFlushes += len(e.flushQ)
}

// mergeFlushes merges the pass's flush queries (key-sorted, Idx = -1 so
// they order before same-key survivors) into the surviving sequence
// out, in place: out came from the front of the reduced batch, and
// every flush stands for an admitted define that left it, so out's
// capacity holds both. The merge runs from the back, moving each block
// of survivors once, to its final place.
//
// A key flushes at most once per pass: a resident key is never
// readmitted by the pass, and an admitted one is admitted once. If it
// also has a surviving search, the key was admitted by its own define,
// and Stage 1 find answers that search against the pre-batch tree
// before Stage 2 applies the flush.
func (e *Engine) mergeFlushes(out []keys.Query) []keys.Query {
	fl := e.flushQ
	if len(fl) == 0 {
		return out
	}
	e.pool.RadixSortQueries(fl)
	hi := len(out) // out[:hi] are the survivors not yet moved
	out = out[:hi+len(fl)]
	for j := len(fl) - 1; j >= 0; j-- {
		k := fl[j].Key
		lo := sort.Search(hi, func(i int) bool { return out[i].Key >= k })
		copy(out[lo+j+1:], out[lo:hi])
		out[lo+j] = fl[j]
		hi = lo
	}
	return out
}

// Train pre-populates the top-K cache with the given keys (§V-B: "the
// entries in the top-K cache can be pre-populated with training
// data"). Each key's current tree state is admitted as a clean entry —
// a value for present keys, a clean tombstone for absent ones — so no
// flush is owed for them. Dirty entries evicted to make room are
// written back to the tree immediately. No-op without a cache, and
// while the Adaptive mode's cache is off.
func (e *Engine) Train(hot []keys.Key) {
	if !e.cacheOn {
		return
	}
	var flushes []keys.Query
	for _, k := range hot {
		if e.topK.Contains(k) {
			continue
		}
		// The tree is authoritative for non-resident keys.
		v, found := e.proc.Tree().Search(k)
		var fl keys.Query
		var evicted bool
		if found {
			fl, evicted = e.topK.Admit(k, v)
		} else {
			fl, evicted = e.topK.AdmitAbsent(k)
		}
		if evicted {
			flushes = append(flushes, fl)
		}
	}
	e.writeBack(flushes)
}

// WarmPairs admits the given key/value pairs into the top-K cache as
// clean entries. The shard migration path calls it on the receiving
// engine after moving a hot key range between shards: the donor's
// cache entries for those keys are necessarily dropped (they would go
// stale), and without re-admission the moved range — by construction
// the hottest keys in the system — serves only misses until the next
// write to each key, since read misses never admit. The caller
// guarantees the values match the receiver's tree (they were just bulk
// inserted), so the entries are clean and owe no flush. Dirty entries
// evicted to make room are written back immediately, as in Train.
// No-op without a cache, and while the Adaptive mode's cache is off.
func (e *Engine) WarmPairs(ks []keys.Key, vs []keys.Value) {
	if !e.cacheOn {
		return
	}
	// Admitting more pairs than the cache holds would just cycle the
	// ring; keep the tail (the keys nearest the moved boundary).
	if c := e.topK.Capacity(); len(ks) > c {
		ks, vs = ks[len(ks)-c:], vs[len(vs)-c:]
	}
	var flushes []keys.Query
	for i, k := range ks {
		if e.topK.Contains(k) {
			continue
		}
		if fl, evicted := e.topK.Admit(k, vs[i]); evicted {
			flushes = append(flushes, fl)
		}
	}
	e.writeBack(flushes)
}

// Flush writes every dirty cache entry back to the tree so the tree
// alone reflects all processed queries. Call at end of run (or before
// inspecting the tree directly) in IntraInter and Adaptive modes.
func (e *Engine) Flush() {
	if e.topK == nil {
		return
	}
	e.writeBack(e.topK.FlushAll())
}

// DrainCacheRange flushes and drops every cached entry with
// lo <= key < hi, leaving the tree authoritative for that key range
// while the rest of the cache stays warm. The shard migration path
// calls it on donor and receiver before moving a key slice between
// engines: a resident entry for a moved key would otherwise serve
// stale state if the key ever routed back. Flushes carry Idx -1 and
// are not logged, same reasoning as Flush. No-op while the cache is off
// (it is empty then).
func (e *Engine) DrainCacheRange(lo, hi keys.Key) {
	if !e.cacheOn {
		return
	}
	e.writeBack(e.topK.DrainRange(lo, hi))
}

// Processor exposes the underlying PALM processor (e.g. for tree
// access and validation in tests).
func (e *Engine) Processor() *palm.Processor { return e.proc }

// RecordLayoutMetrics samples the tree's current leaf-occupancy
// distribution into the metrics registry ("leaf_occupancy_permille").
// The walk is O(#leaves), so call it at run boundaries, not per batch.
// A no-op when metrics are off. Not safe concurrently with batches.
func (e *Engine) RecordLayoutMetrics() {
	if e.met == nil {
		return
	}
	e.met.recordLayout(e.proc.Tree())
}
