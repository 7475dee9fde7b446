package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
	default:
		return "mode?"
	}
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Mode selects Original, Intra, or IntraInter.
	Mode Mode
	// Palm configures the underlying batch processor.
	Palm palm.Config
	// CacheCapacity is the top-K cache size (K); used only in
	// IntraInter mode. <= 0 disables the cache even in IntraInter.
	CacheCapacity int
	// CachePolicy selects the replacement policy (default LRU).
	CachePolicy cache.Policy
	// CompareSort selects comparison sorting for the batch sort instead
	// of the default radix sort (ablation; see Transformer.CompareSort).
	CompareSort bool
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

	// serial is the batch plan ProcessBatch runs: the engine's own
	// Transformer and scan overlay, recording into st.
	serial batchPlan

	// flushed maps keys evicted from the cache during the current
	// batch's cache pass to their flushed state, so later queries on
	// those keys in the same pass still see the correct pre-batch
	// value (see the ordering discussion in DESIGN.md §4.3). It is
	// empty between passes. flushPeak is the most flushes one pass has
	// recorded: the size its table has grown to, since Go maps never
	// shrink.
	flushed   map[keys.Key]flushState
	flushPeak int

	flushQ []keys.Query
	mergeQ []keys.Query

	// flushRS is the empty result sink cache write-backs (defines only,
	// never answered) are applied with.
	flushRS *keys.ResultSet

	st  *stats.Batch
	met *engineMetrics // nil when metrics are off

	// Pipelined stream execution state (nil until the first pipelined
	// ProcessStream call; see pipeline.go).
	tfPool *bsp.Pool
	slots  []*pipeSlot

	// Durability hooks (nil/zero when durability is off; see commit.go).
	// commitErr is written by whichever goroutine runs the batch's
	// commit (the pipeline's tree stage, in streamed execution) and read
	// by CommitErr from dispatcher goroutines, hence the atomic slot.
	committer Committer
	commitErr atomic.Value // error; sticky once set
	gate      *sync.RWMutex
}

type flushState struct {
	value   keys.Value
	deleted bool
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
	if cfg.Mode == IntraInter && cfg.CacheCapacity > 0 {
		e.topK = cache.New(cfg.CacheCapacity, cfg.CachePolicy)
		e.flushed = make(map[keys.Key]flushState)
	}
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
//
// With a Committer installed, the batch's surviving queries are logged
// before any effect reaches tree or cache; a commit failure drops the
// batch (rs contents are then unspecified) and poisons the engine — see
// CommitErr.
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

	if e.gate != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	// Inside the gate: a snapshot's Flush, which holds it exclusively,
	// runs on the same pool and must find worker scheduling.
	if len(qs) < inlineBatch {
		e.pool.SetInline(true)
		defer e.pool.SetInline(false)
	}
	e.transform(&e.serial, qs, rs)
	e.apply(&e.serial, rs)
}

// batchPlan carries one batch from transform to apply: the
// Transformer that reduced it (its Router broadcasts the survivors'
// answers), the scans' define overlay, the stats block transform
// records into, and the queries that still need the tree. The engine
// owns one for ProcessBatch; each pipeline slot owns another, since
// stage A transforms the next batch while stage B applies this one.
type batchPlan struct {
	tf        *Transformer
	ov        scanOverlay
	st        *stats.Batch
	remaining []keys.Query
	// extended marks a batch carrying scans or RMWs: those read the
	// tree directly, so apply drains the cache and skips the cache pass.
	extended bool
}

func (e *Engine) newPlan(pool *bsp.Pool, st *stats.Batch) batchPlan {
	tf := NewTransformer(pool)
	tf.CompareSort = e.cfg.CompareSort
	return batchPlan{tf: tf, st: st}
}

// transform is the tree- and cache-independent half of a non-empty
// batch (stage A in pipelined execution). Scans are split out first;
// the point queries are then sorted once, in place — Original mode
// stops there and sends all of them to the tree, the QTrans modes run
// the one-pass QSAT over them, writing inferred answers into rs — and
// the scans' define overlay is read off those sorted points
// (overlay.go; timed as StageQSAT2, since it is inference).
func (e *Engine) transform(p *batchPlan, qs []keys.Query, rs *keys.ResultSet) {
	scan, rmw := hasScanOrRMW(qs)
	p.extended = scan || rmw
	p.ov.scans, p.ov.fetch = p.ov.scans[:0], p.ov.fetch[:0]
	if scan {
		sw := p.st.Timer(stats.StageQSAT2)
		qs = p.ov.build(qs)
		sw.Stop()
	}
	if e.cfg.Mode == Original {
		sw := p.st.Timer(stats.StageSort)
		p.tf.sort(qs)
		sw.Stop()
		p.remaining = qs
	} else {
		p.remaining = p.tf.Transform(qs, rs, p.st)
	}
	if scan {
		sw := p.st.Timer(stats.StageQSAT2)
		p.ov.finish(qs)
		sw.Stop()
	}
}

// apply is the tree half of a transformed batch (stage B in pipelined
// execution), run under the gate strictly in batch order. Its counters
// and timings go to e.st. In order:
//
//   - a scan/RMW batch drains the top-K cache first: scans and RMWs read
//     the tree directly, so clean residents would go stale the moment
//     the batch mutates the tree underneath them (the cache's contract
//     is point-only, so such batches pay full tree price);
//   - the surviving queries are logged as ONE commit record before any
//     effect reaches tree or cache (whole-batch crash atomicity; scans
//     are pure reads and never logged);
//   - every scan reads the pre-batch tree in one EvalScans pass;
//   - a point batch runs the cache pass;
//   - the queries left run as one PALM pass (Original mode), or as one
//     pass over the reduced batch whose representatives' answers are
//     then broadcast (the QTrans modes);
//   - the scans' rows are patched with the defines that precede them.
func (e *Engine) apply(p *batchPlan, rs *keys.ResultSet) {
	if p.extended {
		e.drainCache()
	}
	remaining := p.remaining
	if !e.commit(remaining) {
		return
	}
	scans := len(p.ov.scans) > 0
	if scans {
		e.st.ScanQueries, e.st.ScanKills = len(p.ov.scans), p.ov.kills
		e.proc.EvalScans(p.ov.fetch, rs)
		e.mergeProcStats(e.st)
	}
	if e.topK != nil && !p.extended {
		sw := e.st.Timer(stats.StageCache)
		remaining = e.cachePass(remaining, rs, &p.tf.Router, e.st)
		sw.Stop()
	}
	e.st.RemainingQueries = len(remaining) + len(p.ov.fetch)
	if e.cfg.Mode == Original {
		e.proc.ProcessBatchSorted(remaining, rs)
	} else {
		e.proc.ProcessTransformed(remaining, rs)
		p.tf.Broadcast(rs)
	}
	e.mergeProcStats(e.st)
	if scans {
		sw := e.st.Timer(stats.StageQSAT2)
		e.st.ScanRows = p.ov.patch(rs)
		sw.Stop()
	}
}

// drainCache empties the top-K cache, applying its dirty state to the
// tree.
func (e *Engine) drainCache() {
	if e.topK != nil {
		e.writeBack(e.topK.Drain())
	}
}

// writeBack applies cache flush queries to the tree in key order. The
// sort is stable: two flushes of one key must land in emission order.
// Flushes carry Idx -1 and are not logged — they re-apply state from
// previously committed batches.
func (e *Engine) writeBack(fl []keys.Query) {
	if len(fl) == 0 {
		return
	}
	slices.SortStableFunc(fl, cmpKey)
	e.proc.ProcessTransformed(fl, e.flushRS)
}

func cmpKey(a, b keys.Query) int { return cmp.Compare(a.Key, b.Key) }

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
// rt is the Router of the plan that transformed this batch and st
// receives the inferred-return counters.
func (e *Engine) cachePass(remaining []keys.Query, rs *keys.ResultSet, rt *Router, st *stats.Batch) []keys.Query {
	e.flushQ = e.flushQ[:0]

	out := remaining[:0]
	h1, m1, ev1 := e.topK.Stats()

	keys.KeyRuns(remaining, func(lo, hi int) {
		k := remaining[lo].Key
		entry, resident := e.topK.Lookup(k)
		if resident {
			// The reduced run is [search?, define?]: the snapshot taken
			// by Lookup is valid for the search (which precedes any
			// define), and defines update the resident entry in place.
			for i := lo; i < hi; i++ {
				q := remaining[i]
				switch q.Op {
				case keys.OpSearch:
					if entry.Tombstone {
						st.InferredReturns += rt.Resolve(rs, q.Idx, 0, false)
					} else {
						st.InferredReturns += rt.Resolve(rs, q.Idx, entry.Value, true)
					}
				case keys.OpInsert:
					e.topK.WriteInsert(q.Key, q.Value)
				case keys.OpDelete:
					e.topK.WriteDelete(q.Key)
				}
			}
			return
		}

		for i := lo; i < hi; i++ {
			q := remaining[i]
			switch q.Op {
			case keys.OpSearch:
				// If this key was flushed earlier in this very pass,
				// its pre-batch state is known without a tree visit.
				if fs, ok := e.flushed[k]; ok {
					if fs.deleted {
						st.InferredReturns += rt.Resolve(rs, q.Idx, 0, false)
					} else {
						st.InferredReturns += rt.Resolve(rs, q.Idx, fs.value, true)
					}
					// The representative stays in the transformer's
					// broadcast list; re-broadcasting the recorded
					// result after evaluation is a harmless no-op.
					continue
				}
				out = append(out, q)
			case keys.OpInsert:
				flush, evicted := e.topK.WriteInsert(q.Key, q.Value)
				if evicted {
					e.recordFlush(flush)
				}
			case keys.OpDelete:
				flush, evicted := e.topK.WriteDelete(q.Key)
				if evicted {
					e.recordFlush(flush)
				}
			}
		}
	})

	h2, m2, ev2 := e.topK.Stats()
	st.CacheHits += int(h2 - h1)
	st.CacheMisses += int(m2 - m1)
	st.CacheEvictions += int(ev2 - ev1)
	st.CacheFlushes += len(e.flushQ)

	// Empty the map for the next pass. A pass with few flushes next to
	// the peak deletes its own keys: clearing the whole table would cost
	// it O(peak). A larger pass clears, because deletes from full groups
	// leave tombstones that lengthen every later probe.
	e.flushPeak = max(e.flushPeak, len(e.flushQ))
	if len(e.flushQ) < e.flushPeak/16 {
		for _, q := range e.flushQ {
			delete(e.flushed, q.Key)
		}
	} else {
		clear(e.flushed)
	}
	if len(e.flushQ) == 0 {
		return out
	}

	// Merge flush queries (key-sorted, Idx = -1 so they order before
	// same-key survivors) into the reduced sequence. The sort must be
	// stable: a key evicted, readmitted by its own defining query, and
	// evicted again within one pass emits two flushes whose emission
	// order decides the key's final tree state.
	slices.SortStableFunc(e.flushQ, cmpKey)
	e.mergeQ = e.mergeQ[:0]
	i, j := 0, 0
	for i < len(out) && j < len(e.flushQ) {
		if out[i].Key < e.flushQ[j].Key || (out[i].Key == e.flushQ[j].Key && out[i].Idx <= e.flushQ[j].Idx) {
			e.mergeQ = append(e.mergeQ, out[i])
			i++
		} else {
			e.mergeQ = append(e.mergeQ, e.flushQ[j])
			j++
		}
	}
	e.mergeQ = append(e.mergeQ, out[i:]...)
	e.mergeQ = append(e.mergeQ, e.flushQ[j:]...)
	return e.mergeQ
}

// recordFlush stores an eviction flush query and remembers the flushed
// state for same-pass lookups.
func (e *Engine) recordFlush(q keys.Query) {
	e.flushQ = append(e.flushQ, q)
	if q.Op == keys.OpDelete {
		e.flushed[q.Key] = flushState{deleted: true}
	} else {
		e.flushed[q.Key] = flushState{value: q.Value}
	}
}

// Train pre-populates the top-K cache with the given keys (§V-B: "the
// entries in the top-K cache can be pre-populated with training
// data"). Each key's current tree state is admitted as a clean entry —
// a value for present keys, a clean tombstone for absent ones — so no
// flush is owed for them. Dirty entries evicted to make room are
// written back to the tree immediately. No-op outside IntraInter mode.
func (e *Engine) Train(hot []keys.Key) {
	if e.topK == nil {
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
// No-op outside IntraInter mode.
func (e *Engine) WarmPairs(ks []keys.Key, vs []keys.Value) {
	if e.topK == nil {
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
// inspecting the tree directly) in IntraInter mode.
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
// are not logged, same reasoning as Flush.
func (e *Engine) DrainCacheRange(lo, hi keys.Key) {
	if e.topK == nil {
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
