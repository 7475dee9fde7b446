// Package shard lifts the paper's single-tree PALM+QTrans engine to a
// range-partitioned multi-engine: N independent core.Engines (each with
// its own B+ tree, BSP pool, top-K cache, and optional two-stage
// pipeline) serve N disjoint key ranges. Each incoming batch is split
// by key range, the sub-batches execute in parallel, and the results
// are merged back into a single ResultSet in original query order —
// so observable semantics stay byte-identical to the unsharded engine
// (and therefore to serial evaluation).
//
// Why equivalence holds: queries on different keys commute, and a key's
// entire history — tree state and cache entry alike — lives in exactly
// one shard, whose engine evaluates that shard's sub-sequence with
// as-if-serial semantics in original relative order (the split is a
// stable partition). Every answer a search can observe depends only on
// same-key prefix state, which is untouched by the re-interleaving
// across shards. The differential fuzz test (fuzz_test.go) checks this
// byte-for-byte against the oracle and the unsharded engine.
package shard

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/stats"
)

// Config configures a sharded engine.
type Config struct {
	// Shards is the number of partitions (<= 1 means a single shard,
	// which behaves exactly like the wrapped core.Engine).
	Shards int
	// Engine configures every shard's core engine. Each shard gets its
	// own pool, tree, and cache from this template, so Palm.Workers is
	// a per-shard thread count.
	Engine core.EngineConfig
	// Boundaries optionally fixes the initial split points: ascending,
	// len Shards-1, shard i serving [Boundaries[i-1], Boundaries[i]).
	Boundaries []keys.Key
	// KeyMax is the largest key the workload is expected to produce;
	// used to derive equal-width initial boundaries when Boundaries is
	// nil (0 = the full uint64 key space). Rebalance corrects a poor
	// initial choice from the observed keys, and the Autoshard
	// controller tracks it continuously.
	KeyMax keys.Key
	// Autoshard configures traffic-aware boundary moves (online heat
	// tracking, incremental migration; the shard count stays Shards;
	// see autoshard.go and DESIGN.md §13). The zero value keeps it off
	// with the routing hot path byte- and alloc-identical to previous
	// releases. Requires Shards > 1.
	Autoshard AutoshardConfig
}

// Engine is a range-partitioned sharded engine. It presents the same
// batch interface as core.Engine (ProcessBatch, ProcessStream, Flush,
// Train, Stats, Close) and may be used anywhere a core.Engine is.
//
// Like core.Engine, an Engine is single-caller: ProcessBatch,
// ProcessStream, and Rebalance must not run concurrently with each
// other or themselves.
type Engine struct {
	cfg Config
	// shards, sp and subRS are built once, for the engine's fixed shard
	// count; bounds is replaced (never mutated) by boundary moves.
	shards []*core.Engine
	bounds []keys.Key

	sp    *splitter
	subRS []*keys.ResultSet

	st   *stats.Batch
	shst *stats.Shard
	met  *shardMetrics // nil when metrics are off

	// Autoshard state (autoshard.go): the heat histogram fed by the
	// routing pass and the controller. Both nil when autoshard is off.
	heat *heatMap
	auto *autoController

	// stream state (stream.go)
	lendRS *keys.ResultSet

	// Durability hooks (nil/zero when durability is off; see commit.go).
	committer Committer
	cmu       sync.Mutex // guards commitErr (committing goroutine vs. readers)
	commitErr error
	gate      *sync.RWMutex
}

// New builds a sharded engine of cfg.Shards partitions.
func New(cfg Config) (*Engine, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	bounds, err := initialBounds(n, cfg.Boundaries, cfg.KeyMax)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		bounds: bounds,
		shst:   stats.NewShard(n),
	}
	for i := 0; i < n; i++ {
		sh, err := core.NewEngine(cfg.Engine)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards = append(e.shards, sh)
	}
	e.finishInit()
	return e, nil
}

// NewFromTree builds a sharded engine whose initial contents are the
// pairs of tree, split across the shards by the engine's boundaries
// (used to restore a snapshot). The tree is consumed: a single shard
// adopts it as its own tree, several shards bulk-load disjoint copies.
func NewFromTree(cfg Config, tree *btree.Tree) (*Engine, error) {
	if tree == nil {
		return nil, fmt.Errorf("shard: NewFromTree with nil tree")
	}
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	bounds, err := initialBounds(n, cfg.Boundaries, cfg.KeyMax)
	if err != nil {
		return nil, err
	}
	order := tree.Order()
	cfg.Engine.Palm.Order = order
	e := &Engine{
		cfg:    cfg,
		bounds: bounds,
		shst:   stats.NewShard(n),
	}
	if n == 1 {
		sh, err := core.NewEngineWithTree(cfg.Engine, tree)
		if err != nil {
			return nil, err
		}
		e.shards = []*core.Engine{sh}
		e.finishInit()
		return e, nil
	}
	ks, vs := tree.Dump()
	lo := 0
	for i := 0; i < n; i++ {
		hi := len(ks)
		if i < n-1 {
			hi = lowerBound(ks, bounds[i], lo)
		}
		sub, err := btree.BulkLoad(order, ks[lo:hi], vs[lo:hi])
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh, err := core.NewEngineWithTree(cfg.Engine, sub)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards = append(e.shards, sh)
		lo = hi
	}
	e.finishInit()
	return e, nil
}

func (e *Engine) finishInit() {
	e.met = newShardMetrics(e.cfg.Engine.Metrics)
	e.sp = newSplitter(len(e.shards))
	e.subRS = make([]*keys.ResultSet, len(e.shards))
	for i := range e.subRS {
		e.subRS[i] = keys.NewResultSet(0)
	}
	if len(e.shards) == 1 {
		// One shard's batches are its engine's batches: share its live
		// statistics block instead of copying it after every batch.
		e.st = e.shards[0].Stats()
	} else {
		e.st = stats.NewBatch(e.shards[0].Pool().N())
	}
	if e.cfg.Autoshard.Enabled && len(e.shards) > 1 {
		cfg := e.cfg.Autoshard.withDefaults()
		e.heat = newHeatMap(cfg.Buckets, e.cfg.KeyMax, cfg.DecayShift)
		e.auto = newAutoController(e, cfg)
	}
}

// initialBounds validates explicit boundaries or derives equal-width
// ones over [0, keyMax].
func initialBounds(n int, explicit []keys.Key, keyMax keys.Key) ([]keys.Key, error) {
	if explicit != nil {
		if len(explicit) != n-1 {
			return nil, fmt.Errorf("shard: %d boundaries for %d shards (want %d)", len(explicit), n, n-1)
		}
		for i := 1; i < len(explicit); i++ {
			if explicit[i] < explicit[i-1] {
				return nil, fmt.Errorf("shard: boundaries not ascending at %d", i)
			}
		}
		return append([]keys.Key(nil), explicit...), nil
	}
	if n == 1 {
		return nil, nil
	}
	span := uint64(keyMax)
	if span == 0 {
		span = math.MaxUint64
	}
	bounds := make([]keys.Key, n-1)
	step := span/uint64(n) + 1
	for i := range bounds {
		bounds[i] = keys.Key(uint64(i+1) * step)
	}
	return bounds, nil
}

// lowerBound returns the first index >= from with ks[i] >= bound.
func lowerBound(ks []keys.Key, bound keys.Key, from int) int {
	lo, hi := from, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shards returns the number of partitions, fixed at construction.
func (e *Engine) Shards() int { return len(e.shards) }

// Bounds returns a copy of the current split points (ascending, len
// Shards-1) — a copy because the autoshard controller replaces the
// engine's own slice between batches.
func (e *Engine) Bounds() []keys.Key {
	e.rlock()
	defer e.runlock()
	return append([]keys.Key(nil), e.bounds...)
}

// Shard exposes shard s's core engine (tests and diagnostics).
func (e *Engine) Shard(s int) *core.Engine { return e.shards[s] }

// Stats returns the aggregated per-stage statistics of the most
// recently completed ProcessBatch (summed across the shards that
// participated; a single shard's own block). During ProcessStream the
// per-shard blocks mutate concurrently, so Stats is meaningful only
// between stream runs.
func (e *Engine) Stats() *stats.Batch { return e.st }

// ShardStats returns the routing/rebalance counters.
func (e *Engine) ShardStats() *stats.Shard { return e.shst }

// Close stops the autoshard controller (if running) and releases every
// shard's resources.
func (e *Engine) Close() {
	e.StopAutoshard()
	for _, sh := range e.shards {
		sh.Close()
	}
}

// ProcessBatch evaluates one batch with semantics identical to the
// unsharded engine: split by key range, evaluate sub-batches in
// parallel, merge results back in original query order. qs must carry
// batch-position Idx values (keys.Number) and rs must be Reset to
// len(qs). When every query routes to one shard the batch is passed
// through unsplit (and, like the unsharded engine, reordered in
// place); otherwise qs is left untouched.
//
// With a Committer installed, the batch's defines are logged before
// any shard sees it; a commit failure drops the batch (rs contents are
// then unspecified) and poisons the engine — see CommitErr.
func (e *Engine) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	// The gate spans the append and the whole batch application —
	// split, every shard's sub-batch, merge — so a snapshot never
	// observes a logged but unapplied batch (see commit.go), and the
	// autoshard controller (which holds the gate exclusively while it
	// moves keys and swaps bounds) never overlaps one. It must be taken
	// before anything below reads the bounds or the shard trees.
	e.rlock()
	defer e.runlock()
	if !e.commit(qs) {
		return // poisoned: drop unapplied
	}
	if len(e.shards) == 1 {
		e.shards[0].ProcessBatch(qs, rs)
		e.shst.RecordRouted(0, len(qs))
		e.shst.RecordBatch()
		e.met.recordRouted(0, len(qs))
		e.met.recordBatch()
		return
	}

	splitStart, _ := e.met.now()
	e.sp.split(qs, e.bounds, e.heat)
	e.met.observeSplit(splitStart)
	e.recordRouting(e.sp)

	if s := e.sp.sole; s >= 0 {
		// Partial batch: one shard owns every query, so its engine can
		// consume the original batch with the caller's ResultSet — Idx
		// values are already batch positions. No copy, no merge.
		e.shards[s].ProcessBatch(qs, rs)
		e.st.Reset()
		e.shards[s].Stats().AddTo(e.st)
		return
	}

	var wg sync.WaitGroup
	for s := range e.shards {
		sub := e.sp.subs[s]
		if len(sub) == 0 {
			continue
		}
		e.subRS[s].Reset(len(sub))
		wg.Add(1)
		go func(s int, sub []keys.Query) {
			defer wg.Done()
			e.shards[s].ProcessBatch(sub, e.subRS[s])
		}(s, sub)
	}
	wg.Wait()
	mergeStart, _ := e.met.now()
	e.sp.merge(e.subRS, rs)
	e.met.observeMerge(mergeStart)

	e.st.Reset()
	for s := range e.shards {
		if len(e.sp.subs[s]) > 0 {
			e.shards[s].Stats().AddTo(e.st)
		}
	}
}

// recordRouting folds one split's routing into the shard counters and
// advances the heat map's EWMA clock by one batch. It runs on the
// routing goroutine (ProcessBatch's caller, or the stream dispatcher),
// which is the heat map's single writer.
func (e *Engine) recordRouting(sp *splitter) {
	e.heat.decay()
	for s := range sp.subs {
		if n := len(sp.subs[s]); n > 0 {
			e.shst.RecordRouted(s, n)
			e.met.recordRouted(s, n)
		}
	}
	e.shst.RecordBatch()
	e.met.recordBatch()
}

// Flush writes every shard's dirty cache entries back to its tree.
func (e *Engine) Flush() {
	for _, sh := range e.shards {
		sh.Flush()
	}
}

// Train pre-populates each shard's top-K cache with the hot keys that
// route to it (§V-B training, per partition).
func (e *Engine) Train(hot []keys.Key) {
	// Training writes cache state, so it takes the gate exclusively —
	// it runs at a batch boundary, never beside in-flight batches.
	if e.gate != nil {
		e.gate.Lock()
		defer e.gate.Unlock()
	}
	if len(e.shards) == 1 {
		e.shards[0].Train(hot)
		return
	}
	per := make([][]keys.Key, len(e.shards))
	for _, k := range hot {
		s := shardOf(e.bounds, k)
		per[s] = append(per[s], k)
	}
	for s, ks := range per {
		if len(ks) > 0 {
			e.shards[s].Train(ks)
		}
	}
}

// Len returns the total number of stored pairs (caches flushed first
// so the count is exact).
func (e *Engine) Len() int {
	// The flush writes dirty cache entries into the trees, so this
	// takes the gate exclusively (a batch boundary), not shared.
	if e.gate != nil {
		e.gate.Lock()
		defer e.gate.Unlock()
	}
	e.Flush()
	n := 0
	for _, sh := range e.shards {
		n += sh.Processor().Tree().Len()
	}
	return n
}

// Scan visits all pairs in ascending key order across shards (caches
// flushed first) until fn returns false. Shard ranges are disjoint and
// ascending, so visiting shards in order yields global key order.
func (e *Engine) Scan(fn func(k keys.Key, v keys.Value) bool) {
	// Flushes (writes) before reading, so the gate is taken
	// exclusively, like Len.
	if e.gate != nil {
		e.gate.Lock()
		defer e.gate.Unlock()
	}
	e.Flush()
	for _, sh := range e.shards {
		stop := false
		sh.Processor().Tree().Scan(func(k keys.Key, v keys.Value) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Dump returns every stored pair in ascending key order (caches
// flushed first), matching btree.Tree.Dump for differential tests and
// snapshots. Dump deliberately does not take the scheduling gate: the
// snapshot path calls it while already holding the gate exclusively.
func (e *Engine) Dump() (ks []keys.Key, vs []keys.Value) {
	e.Flush()
	for _, sh := range e.shards {
		sks, svs := sh.Processor().Tree().Dump()
		ks = append(ks, sks...)
		vs = append(vs, svs...)
	}
	return ks, vs
}

// Save writes the store (caches flushed first) in the single-tree
// snapshot format btree.Load reads, whatever the shard count: one shard
// saves its live tree, several dump into one bulk-loaded tree. Like
// Dump it takes no lock; the caller holds the scheduling gate.
func (e *Engine) Save(w io.Writer) error {
	if len(e.shards) == 1 {
		e.shards[0].Flush()
		return e.shards[0].Processor().Tree().Save(w)
	}
	ks, vs := e.Dump()
	tree, err := btree.BulkLoad(e.Order(), ks, vs)
	if err != nil {
		return err
	}
	return tree.Save(w)
}

// Order returns the shards' B+ tree order.
func (e *Engine) Order() int { return e.shards[0].Processor().Tree().Order() }
