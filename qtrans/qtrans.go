// Package qtrans is the public facade of the repository: a batteries-
// included, high-throughput B+ tree query processing engine combining
// the PALM latch-free bulk-synchronous batch processor with the QTrans
// query-sequence optimizer and inter-batch top-K cache of
//
//	Tian, Qiu, Zhao, Liu, Ren — "Transforming Query Sequences for
//	High-Throughput B+ Tree Processing on Many-Core Processors",
//	CGO 2019.
//
// Quick use:
//
//	db, err := qtrans.Open(qtrans.Options{})
//	defer db.Close()
//
//	batch := qtrans.NewBatch()
//	batch.Insert(100, 7)
//	batch.Search(100)
//	results := db.Run(batch)
//	v, found := results.Search(1)      // query #1 -> 7, true
//
// Batches execute with semantics identical to evaluating their queries
// one at a time in order. For an online (per-query, latency-bounded)
// interface, see Service.
package qtrans

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/batcher"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/palm"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/wal"
)

// Key is a B+ tree key.
type Key = keys.Key

// Value is the payload stored under a key.
type Value = keys.Value

// Result is the outcome of a search query.
type Result = keys.Result

// KV is one row of a range-scan result.
type KV = keys.KV

// Optimization selects how much of QTrans is applied.
type Optimization int

// Optimization levels (see the paper's Fig. 14 configurations). The
// zero value is Full so that a zero Options opens the fully-optimized
// engine.
const (
	// Full applies intra-batch QTrans plus the inter-batch top-K
	// cache (§V-A + §V-B) where they pay: a batch whose share of
	// duplicate keys is below the cost gate's crossover skips QSAT and
	// takes the plain PALM path, and the cache turns off while recent
	// batches stay below it (core.Adaptive). The default.
	Full Optimization = iota
	// None runs the plain PALM pipeline.
	None
	// IntraBatch adds only the parallel intra-batch QTrans (§V-A), on
	// every batch.
	IntraBatch
)

func (o Optimization) mode() core.Mode {
	switch o {
	case None:
		return core.Original
	case IntraBatch:
		return core.Intra
	default:
		return core.Adaptive
	}
}

// Options configures a DB.
type Options struct {
	// Order is the B+ tree fanout (0 = 64).
	Order int
	// Workers is the number of BSP threads (0 = GOMAXPROCS).
	Workers int
	// Optimization selects the pipeline; the zero value is Full.
	Optimization Optimization
	// CacheCapacity is the top-K cache size (0 = 65536); used by Full.
	CacheCapacity int
	// Pipeline enables two-stage pipelined execution for streamed
	// batches (RunStream, Serve): while the tree evaluates batch N, the
	// QTrans transform of batch N+1 runs concurrently. Semantics are
	// identical to serial execution; single-batch Run is unaffected. On
	// a tiered DB (Options.Tiered) RunStream and Serve run batches one
	// at a time, so Pipeline has no effect there.
	Pipeline bool
	// Shards range-partitions the key space across this many
	// independent engines (each with its own tree, worker pool, and
	// cache); batches are split by key range, evaluated in parallel,
	// and re-merged in original query order, so semantics are identical
	// to serial evaluation. 0 or 1 is a one-shard engine, which passes
	// every batch straight to its one tree with no split or merge. See
	// DESIGN.md §6.
	Shards int
	// ShardKeyMax hints the largest key the workload produces so the
	// initial equal-width shard boundaries cover the real key range
	// (0 = the full uint64 space). A poor hint only skews load, never
	// correctness; DB.Rebalance re-splits from the stored keys.
	ShardKeyMax Key
	// Autoshard enables traffic-aware boundary moves on a sharded DB
	// (Shards > 1; Open returns ErrAutoshardUnsharded otherwise): the
	// splitter's routing pass feeds an online per-key-range heat
	// histogram, and a background controller moves one shard boundary
	// per step toward its traffic-weighted position, migrating at most
	// MaxStep keys exactly at a batch boundary — serving never pauses
	// longer than one inter-batch gap. The shard count stays Shards.
	// The zero value keeps autosharding off with the hot path byte-
	// and alloc-identical to previous releases. See DESIGN.md §13.
	Autoshard Autoshard
	// Durability enables crash-safe operation (write-ahead log +
	// atomic snapshots) when its Dir is set; the zero value keeps
	// durability off with semantics identical to previous releases.
	// See durability.go.
	Durability Durability
	// Tiered enables cold-range spilling to disk when its Dir is set
	// (DESIGN.md §14): whole key ranges are demoted out of the
	// in-memory tree into immutable sorted runs when the resident key
	// count exceeds the budget, and batches transparently fault cold
	// ranges back in when they write, RMW, or scan into them (point
	// searches are served from the runs without promotion). At most
	// one bounded action runs per batch boundary through the
	// scheduling gate, so serving never pauses. Because each batch's
	// faults and maintenance need exclusive batch boundaries, RunStream
	// and Serve on a tiered DB run every batch to completion before
	// taking the next: Options.Pipeline gives no overlap. Combined with
	// Durability, runs and the residency manifest participate in crash
	// recovery. The zero value keeps tiering off with the hot path
	// alloc-identical to previous releases.
	Tiered Tiered
	// Metrics, when non-nil, instruments the full batch path into the
	// given registry (see metrics.go and DESIGN.md §9): per-stage and
	// batch-wall latency histograms, cache/fence/query counters, shard
	// split/merge and WAL append/fsync timings, batcher queue depth and
	// fill. Nil (the zero value) keeps every hot path identical to the
	// uninstrumented build — same results, zero extra allocations.
	Metrics *Metrics
}

// Autoshard configures traffic-aware boundary moves (see
// Options.Autoshard). Every field but Enabled is optional; zero picks
// the documented default.
type Autoshard struct {
	// Enabled turns the controller on (requires Options.Shards > 1, see
	// ErrAutoshardUnsharded).
	Enabled bool
	// Buckets is the heat histogram resolution (0 = 256).
	Buckets int
	// Interval is the background controller period (0 = 50ms; negative
	// disables the background goroutine so resharding happens only on
	// explicit DB.AutoshardStep calls).
	Interval time.Duration
	// MaxStep bounds the pairs migrated per controller step (0 = 4096)
	// — the unit of non-stop-the-world migration.
	MaxStep int
	// MinHeat is the total histogram heat below which the controller
	// idles (0 = 256).
	MinHeat int64
}

// Tiered configures cold-range spilling to disk (see Options.Tiered
// and DESIGN.md §14). Every field but Dir is optional; zero picks the
// documented default.
type Tiered struct {
	// Dir is the tier directory (run files + residency manifest).
	// Empty means tiering off. Without Options.Durability the
	// directory is wiped on Open (cold runs cannot outlive the process
	// without a log to reconcile against); with it, the directory is
	// recovered and reconciled with the write-ahead log.
	Dir string
	// MaxResidentKeys is the resident budget: while the in-memory
	// tree stores more keys, batch boundaries demote cold ranges.
	// 0 disables demotion (existing cold ranges are still served).
	MaxResidentKeys int
	// RunKeys caps the pairs per demoted run (0 = 4096).
	RunKeys int
	// HeatBuckets is the demotion policy's heat histogram resolution
	// (0 = 64).
	HeatBuckets int
	// KeyMax bounds the demotable key space to [0, KeyMax] and sizes
	// the heat histogram over it (0 = the full uint64 space).
	KeyMax Key
	// MaxActionsPerBatch bounds the demotions applied at one batch
	// boundary (0 = 1) — the unit of never-pause maintenance.
	MaxActionsPerBatch int
	// PromoteReads promotes a cold range on any access, including
	// point searches; by default only writes, RMWs, and scans fault a
	// range back in and searches are answered from the run on disk.
	PromoteReads bool

	// fs overrides the filesystem (fault-injection tests only).
	fs wal.FS
}

// tierConfig translates the facade knobs to the tier store config.
func (opts Options) tierConfig() tier.Config {
	return tier.Config{
		Dir:          opts.Tiered.Dir,
		FS:           opts.Tiered.fs,
		MaxResident:  opts.Tiered.MaxResidentKeys,
		RunKeys:      opts.Tiered.RunKeys,
		Buckets:      opts.Tiered.HeatBuckets,
		KeyMax:       opts.Tiered.KeyMax,
		PromoteReads: opts.Tiered.PromoteReads,
		Metrics:      opts.Metrics,
	}
}

// shardConfig translates the facade knobs to the internal controller
// config.
func (a Autoshard) shardConfig() shard.AutoshardConfig {
	return shard.AutoshardConfig{
		Enabled:  a.Enabled,
		Buckets:  a.Buckets,
		Interval: a.Interval,
		MaxStep:  a.MaxStep,
		MinHeat:  a.MinHeat,
	}
}

// engineConfig translates Options to the per-engine configuration
// (for a sharded DB this is each shard's config; Workers is then a
// per-shard thread count).
func (opts Options) engineConfig() core.EngineConfig {
	capacity := opts.CacheCapacity
	if capacity == 0 {
		capacity = 1 << 16
	}
	return core.EngineConfig{
		Mode: opts.Optimization.mode(),
		Palm: palm.Config{
			Order:       opts.Order,
			Workers:     opts.Workers,
			LoadBalance: true,
		},
		CacheCapacity: capacity,
		Pipeline:      opts.Pipeline,
		Metrics:       opts.Metrics,
	}
}

// engine is the execution surface shared by the shard engine and the
// tier wrapper around it; DB drives the outermost layer through it.
type engine interface {
	ProcessBatch(qs []keys.Query, rs *keys.ResultSet)
	ProcessStream(in <-chan *core.Job, emit func(*core.Job))
	Train(hot []keys.Key)
	Stats() *stats.Batch
	Close()
}

// ErrAutoshardUnsharded is returned by Open and Load when
// Options.Autoshard is enabled on a DB with Options.Shards <= 1: the
// controller re-splits boundaries between shards, so a one-shard DB has
// nothing to reshard.
var ErrAutoshardUnsharded = errors.New("qtrans: Options.Autoshard needs Options.Shards > 1")

// DB is a B+ tree database processing query batches.
type DB struct {
	eng       engine
	shards    *shard.Engine // one shard when Options.Shards <= 1
	pipelined bool
	// tier is the cold-store wrapper (nil when Options.Tiered is off;
	// when non-nil it wraps shards and is also eng).
	tier *tier.Engine

	// gate serializes snapshots against batch application: every batch
	// holds it for reading, Save/Checkpoint for writing, so a snapshot
	// always observes a whole-batch boundary — even while a RunStream
	// or Service is active.
	gate sync.RWMutex

	// Durability state (nil/zero when durability is off).
	log    *wal.Log
	durDir string
	durFS  wal.FS

	// met is the registry from Options.Metrics (nil when metrics off).
	met *Metrics
}

// Open creates a DB. The zero Options selects the fully-optimized
// pipeline with default sizes. With Options.Durability.Dir set, Open
// first recovers whatever the directory holds — snapshot, committed
// batches, torn crash debris — and then serves with write-ahead
// logging on.
func Open(opts Options) (*DB, error) {
	if opts.Autoshard.Enabled && opts.Shards <= 1 {
		return nil, ErrAutoshardUnsharded
	}
	if opts.Durability.Dir != "" {
		return openDurable(opts)
	}
	db, err := build(opts, nil)
	if err != nil {
		return nil, err
	}
	// Without durability the tier directory starts fresh: cold runs
	// cannot be reconciled without a log, so wipe any leftovers.
	if err := db.wireTier(opts, true); err != nil {
		db.eng.Close()
		return nil, err
	}
	return db, nil
}

// wireTier wraps the shard engine with the tier store when
// Options.Tiered is on. With wipe, existing tier state is discarded.
func (db *DB) wireTier(opts Options, wipe bool) error {
	if opts.Tiered.Dir == "" {
		return nil
	}
	st, err := tier.Open(opts.tierConfig(), wipe)
	if err != nil {
		return err
	}
	te := tier.NewEngine(db.shards, st, opts.Tiered.MaxActionsPerBatch)
	te.SetGate(&db.gate)
	db.eng, db.tier = te, te
	return nil
}

// build constructs the shard engine for opts — one shard or several,
// over a restored tree or fresh — and installs the snapshot gate.
func build(opts Options, tree *btree.Tree) (*DB, error) {
	cfg := shard.Config{
		Shards:    opts.Shards,
		Engine:    opts.engineConfig(),
		KeyMax:    opts.ShardKeyMax,
		Autoshard: opts.Autoshard.shardConfig(),
	}
	var se *shard.Engine
	var err error
	if tree != nil {
		se, err = shard.NewFromTree(cfg, tree)
	} else {
		se, err = shard.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	db := &DB{eng: se, shards: se, pipelined: opts.Pipeline, met: opts.Metrics}
	se.SetGate(&db.gate)
	// The background controller steps through the same gate the
	// batches hold, so it must start after the gate is installed.
	se.StartAutoshard()
	return db, nil
}

// Close releases the DB's worker pools and, when durability is on,
// fsyncs and closes the write-ahead log.
func (db *DB) Close() {
	if db.log != nil {
		db.log.Close()
	}
	db.eng.Close()
}

// Batch assembles queries for one Run. Positions (0-based submission
// order) identify queries in the Results.
type Batch struct {
	qs []keys.Query
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Len returns the number of queries added.
func (b *Batch) Len() int { return len(b.qs) }

// Search appends S(key) and returns its position.
func (b *Batch) Search(k Key) int {
	b.qs = append(b.qs, keys.Search(k))
	return len(b.qs) - 1
}

// Insert appends I(key, value) — insert-or-update — and returns its
// position.
func (b *Batch) Insert(k Key, v Value) int {
	b.qs = append(b.qs, keys.Insert(k, v))
	return len(b.qs) - 1
}

// Delete appends D(key) and returns its position.
func (b *Batch) Delete(k Key) int {
	b.qs = append(b.qs, keys.Delete(k))
	return len(b.qs) - 1
}

// Scan appends a range scan over [lo, hi) returning at most limit rows
// in ascending key order (limit 0 = unlimited), and returns its
// position. Retrieve the rows with Results.Scan; Results.Search at the
// same position reports the row count. A scan observes every earlier
// write in the batch and none of the later ones, exactly as in serial
// evaluation.
func (b *Batch) Scan(lo, hi Key, limit Value) int {
	b.qs = append(b.qs, keys.Scan(lo, hi, Value(limit)))
	return len(b.qs) - 1
}

// AddDelta appends an atomic read-modify-write that adds delta to the
// key's value (treating an absent key as 0, so the key is present
// afterwards) and returns its position. The result at this position is
// the value *before* the update, with Found reporting prior presence.
func (b *Batch) AddDelta(k Key, delta Value) int {
	b.qs = append(b.qs, keys.AddDelta(k, delta))
	return len(b.qs) - 1
}

// SetIfAbsent appends an atomic insert-if-absent: the key is set to v
// only when not present. Returns its position; the result there is the
// prior value and presence (Found == true means v was NOT stored).
func (b *Batch) SetIfAbsent(k Key, v Value) int {
	b.qs = append(b.qs, keys.SetIfAbsent(k, v))
	return len(b.qs) - 1
}

// Results holds the answers of one Run, addressed by query position.
type Results struct {
	rs *keys.ResultSet
}

// Search returns the result of the search query at position pos.
// found is false if the key was absent; ok distinguishes "query at pos
// was not a search" (no result recorded). RMW queries record their
// pre-update value here; scans record their row count.
func (r *Results) Search(pos int) (res Result, ok bool) {
	return r.rs.Get(int32(pos))
}

// Scan returns the rows of the range scan at position pos, ascending
// by key. ok is false when pos did not hold a scan. The slice aliases
// internal storage; treat it as read-only (and, under RunStream, copy
// it before the callback returns).
func (r *Results) Scan(pos int) (rows []KV, ok bool) {
	return r.rs.ScanRows(int32(pos))
}

// Run evaluates the batch with as-if-serial semantics and returns its
// results. The batch is consumed and must not be reused.
func (db *DB) Run(b *Batch) *Results {
	keys.Number(b.qs)
	rs := keys.NewResultSet(len(b.qs))
	db.eng.ProcessBatch(b.qs, rs)
	return &Results{rs: rs}
}

// RunStream evaluates a stream of batches in arrival order, calling fn
// with each batch's results as it completes. Semantics are identical to
// calling Run on each batch in order; with Options.Pipeline the QTrans
// transform of the next batch overlaps tree evaluation of the current
// one (except on a tiered DB, which runs batches one at a time). The
// Results passed to fn reuse internal storage and are valid
// only until fn returns; batches are consumed. RunStream returns when
// in is closed and every batch has been emitted. The DB must not be
// used concurrently from other goroutines while a RunStream is active.
func (db *DB) RunStream(in <-chan *Batch, fn func(*Batch, *Results)) {
	jobs := make(chan *core.Job)
	free := make(chan *core.Job, 4)
	go func() {
		for b := range in {
			var j *core.Job
			select {
			case j = <-free:
			default:
				j = new(core.Job)
			}
			keys.Number(b.qs)
			j.Qs = b.qs
			j.RS = nil
			j.Tag = b
			jobs <- j
		}
		close(jobs)
	}()
	res := &Results{}
	db.eng.ProcessStream(jobs, func(j *core.Job) {
		res.rs = j.RS
		fn(j.Tag.(*Batch), res)
		res.rs = nil
		j.Qs, j.Tag = nil, nil
		select {
		case free <- j:
		default:
		}
	})
}

// Get is a convenience point lookup (one-query batch).
func (db *DB) Get(k Key) (Value, bool) {
	b := NewBatch()
	b.Search(k)
	res := db.Run(b)
	r, _ := res.Search(0)
	return r.Value, r.Found
}

// Put is a convenience single upsert.
func (db *DB) Put(k Key, v Value) {
	b := NewBatch()
	b.Insert(k, v)
	db.Run(b)
}

// Remove is a convenience single delete.
func (db *DB) Remove(k Key) {
	b := NewBatch()
	b.Delete(k)
	db.Run(b)
}

// Len returns the number of stored pairs. In Full mode this flushes
// the caches first so the count is exact. On a tiered DB the count
// includes cold pairs spilled to disk.
func (db *DB) Len() int {
	if db.tier != nil {
		return db.tier.Len()
	}
	return db.shards.Len()
}

// Scan visits all pairs in ascending key order (flushing the caches
// first) until fn returns false. On a tiered DB cold ranges are read
// from their runs in place, merged into key order; a run read failure
// stops the scan and surfaces through Err.
func (db *DB) Scan(fn func(k Key, v Value) bool) {
	if db.tier != nil {
		db.tier.Scan(fn)
		return
	}
	db.shards.Scan(fn)
}

// TierStats summarizes a tiered DB's cold store (resident/cold keys,
// promotions, demotions, faults, disk bytes); ok is false when the DB
// was opened without Options.Tiered.
func (db *DB) TierStats() (st tier.Stats, ok bool) {
	if db.tier == nil {
		return tier.Stats{}, false
	}
	return db.tier.Store().Stats(), true
}

// Warm pre-populates the top-K cache with hot keys (§V-B training).
// On a sharded DB every key is trained into its owning shard's cache.
func (db *DB) Warm(hot []Key) { db.eng.Train(hot) }

// Rebalance re-splits a sharded DB's boundaries so every shard holds an
// equal share of the stored keys, migrating keys between shards. Call
// it between batches (not concurrently with Run, RunStream, or an open
// Service). Semantics are unaffected — only the partition moves. It
// returns the number of keys that changed shard; on an unsharded DB it
// is a no-op.
func (db *DB) Rebalance() (migrated int, err error) {
	return db.shards.Rebalance()
}

// AutoshardStep runs one autoshard controller step synchronously (see
// Options.Autoshard): the controller takes the batch gate exclusively,
// makes at most one bounded boundary move, and returns what it did.
// Useful with a negative Autoshard.Interval to drive resharding from
// the caller's own cadence; a no-op returning the zero report when
// autosharding is off or the DB is unsharded.
func (db *DB) AutoshardStep() shard.AutoshardReport {
	return db.shards.AutoshardStep()
}

// ShardStats exposes the routing/rebalance counters of a sharded DB
// (nil when unsharded).
func (db *DB) ShardStats() *stats.Shard {
	if db.shards.Shards() == 1 {
		return nil
	}
	return db.shards.ShardStats()
}

// Save writes a snapshot of the store (caches flushed first) that Load
// can restore. Snapshots are order-portable and shard-count-portable:
// a sharded DB writes the same single-tree snapshot format as an
// unsharded one. Save waits for in-flight batches at a batch boundary,
// so it may be called while a RunStream or Service is active.
func (db *DB) Save(w io.Writer) error {
	db.gate.Lock()
	defer db.gate.Unlock()
	return db.saveLocked(w)
}

// saveLocked dumps the store (dirty cache entries flushed first) with
// the snapshot gate held: no batch is mid-application, so the dump is
// exactly the state after the last completed batch. On a tiered DB
// the export materializes cold runs into the single-tree format, so
// the snapshot loads anywhere — including a DB without Options.Tiered
// (Checkpoint, by contrast, snapshots hot state + residency only and
// never materializes cold data; see durability.go).
func (db *DB) saveLocked(w io.Writer) error {
	if db.tier != nil {
		ks, vs, err := db.tier.DumpLocked()
		if err != nil {
			return err
		}
		tree, err := btree.BulkLoad(db.shards.Order(), ks, vs)
		if err != nil {
			return err
		}
		return tree.Save(w)
	}
	return db.shards.Save(w)
}

// Load restores a snapshot written by Save into a fresh DB configured
// by opts (opts.Order <= 0 keeps the snapshot's order). With
// opts.Shards > 1 the snapshot is split across the shards by key
// range. Load restores portable exports only; to reopen a durable
// directory, pass its Options.Durability to Open instead.
func Load(r io.Reader, opts Options) (*DB, error) {
	if opts.Durability.Dir != "" {
		return nil, fmt.Errorf("qtrans: Load does not take Options.Durability; Open recovers a durable directory")
	}
	if opts.Autoshard.Enabled && opts.Shards <= 1 {
		return nil, ErrAutoshardUnsharded
	}
	tree, err := btree.Load(r, opts.Order)
	if err != nil {
		return nil, err
	}
	opts.Order = tree.Order()
	db, err := build(opts, tree)
	if err != nil {
		return nil, err
	}
	if err := db.wireTier(opts, true); err != nil {
		db.eng.Close()
		return nil, err
	}
	return db, nil
}

// LastBatchStats exposes the instrumentation of the most recent Run,
// including the cost gate's decisions under Full: QSATSkipped (the
// batch went to the tree unreduced) and CacheOn (the top-K cache mode),
// each counted per shard.
func (db *DB) LastBatchStats() *stats.Batch { return db.eng.Stats() }

// Explain classifies a batch's redundancy without running it: how many
// queries QTrans would eliminate and why (the three §III-C categories).
// The batch is not consumed. The report also carries the batch's
// duplicate share and whether the cost gate skips QSAT for it.
func Explain(b *Batch) core.Report { return core.Explain(b.qs) }

// Service wraps a DB with an online, latency-bounded interface:
// individual queries are submitted from any goroutine and batched
// transparently (§VI-D's online-processing regime). All seven
// operations are available online — point ops (Get/Put/Remove), range
// scans (Scan), and atomic RMW (AddDelta/SetIfAbsent) — mirroring the
// Batch vocabulary; assembling a Batch and calling Run remains the
// higher-throughput path when queries arrive pre-grouped. The same
// operation set is served over TCP by cmd/qtransserver, which feeds a
// network front end (internal/server) from the Batcher accessor.
type Service struct {
	db *DB
	b  *batcher.Batcher
}

// ServiceOptions tunes the online batching. Batches form by group
// commit: an idle service starts a query at once, and queries that
// arrive while a batch runs go together in the next one.
type ServiceOptions struct {
	// MaxBatch caps a batch (0 = 4096).
	MaxBatch int
	// TargetLatency, when positive, auto-tunes the batch size so that
	// batch processing time approaches the target (the §VI-D
	// throughput/latency trade). Unavailable when the DB was opened
	// with Pipeline (overlapped batches have no attributable
	// per-batch processing time); Pipeline takes precedence.
	TargetLatency time.Duration
}

// Serve wraps db in an online Service. The db must not be used
// directly while the service is open. A DB opened with Pipeline
// serves overlapped: the transform of one dispatched batch runs
// while the previous one is still in the tree. A tiered DB serves
// one batch at a time.
func (db *DB) Serve(opts ServiceOptions) *Service {
	return &Service{
		db: db,
		b: batcher.New(db.eng, batcher.Config{
			MaxBatch:      opts.MaxBatch,
			TargetLatency: opts.TargetLatency,
			Pipeline:      db.pipelined,
			Metrics:       db.met,
		}),
	}
}

// Get looks a key up, blocking until its batch executes.
func (s *Service) Get(k Key) (Value, bool, error) {
	f, err := s.b.Submit(keys.Search(k))
	if err != nil {
		return 0, false, err
	}
	r, _ := f.Get()
	return r.Value, r.Found, nil
}

// Put upserts a pair, blocking until applied.
func (s *Service) Put(k Key, v Value) error {
	f, err := s.b.Submit(keys.Insert(k, v))
	if err != nil {
		return err
	}
	f.Get()
	return nil
}

// Remove deletes a key, blocking until applied.
func (s *Service) Remove(k Key) error {
	f, err := s.b.Submit(keys.Delete(k))
	if err != nil {
		return err
	}
	f.Get()
	return nil
}

// PutAsync upserts without waiting; the returned wait function blocks
// until the mutation is applied.
func (s *Service) PutAsync(k Key, v Value) (wait func(), err error) {
	f, err := s.b.Submit(keys.Insert(k, v))
	if err != nil {
		return nil, err
	}
	return func() { f.Get() }, nil
}

// Scan returns all present pairs with lo <= key < hi in ascending key
// order, at most limit rows (limit 0 = unlimited), blocking until its
// batch executes. The rows are a private copy, valid indefinitely.
func (s *Service) Scan(lo, hi Key, limit Value) ([]KV, error) {
	f, err := s.b.Submit(keys.Scan(lo, hi, limit))
	if err != nil {
		return nil, err
	}
	rows, _ := f.Rows()
	return rows, nil
}

// AddDelta atomically sets key = old + delta (absent = 0) and reports
// the key's state before the transform, blocking until applied.
func (s *Service) AddDelta(k Key, delta Value) (old Value, existed bool, err error) {
	f, err := s.b.Submit(keys.AddDelta(k, delta))
	if err != nil {
		return 0, false, err
	}
	r, _ := f.Get()
	return r.Value, r.Found, nil
}

// SetIfAbsent atomically inserts v only when k is absent and reports
// the key's state before the transform (existed == true means the
// stored value was left untouched), blocking until applied.
func (s *Service) SetIfAbsent(k Key, v Value) (old Value, existed bool, err error) {
	f, err := s.b.Submit(keys.SetIfAbsent(k, v))
	if err != nil {
		return 0, false, err
	}
	r, _ := f.Get()
	return r.Value, r.Found, nil
}

// Batcher exposes the Service's underlying batcher. It is the hook
// the network front end builds on: internal/server.Config takes a
// *batcher.Batcher, so cmd/qtransserver serves this one over TCP and
// reads its Load() as the admission-control congestion signal.
func (s *Service) Batcher() *batcher.Batcher { return s.b }

// Close flushes pending queries and stops the service. The underlying
// DB remains usable.
func (s *Service) Close() { s.b.Close() }
