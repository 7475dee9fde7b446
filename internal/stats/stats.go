// Package stats collects the measurements the paper's evaluation
// reports: per-stage wall-clock breakdowns (Fig. 14c), query-reduction
// ratios (Fig. 14b), per-thread leaf-operation counts (Fig. 13), cache
// hit counters, and latency/throughput summaries (Table II, Figs. 9-12).
package stats

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of batch processing for timing breakdowns.
type Stage int

// Stages of the original PALM pipeline (Fig. 3) and the QTrans-extended
// pipeline (Fig. 8).
const (
	StageSort     Stage = iota // pre-sorting the batch by key
	StageQSAT1                 // QTrans sort (named qsat-phase1 for continuity)
	StageQSAT2                 // QSAT pass + scan split (named qsat-phase2)
	StageCache                 // inter-batch top-K cache pass
	StageFind                  // Stage 1: leaf search
	StageEvaluate              // Stage 2: query evaluation at leaves
	StageModify                // Stage 3: bottom-up restructuring
	numStages
)

// String names the stage as used in figure output.
func (s Stage) String() string {
	switch s {
	case StageSort:
		return "sort"
	case StageQSAT1:
		return "qsat-phase1"
	case StageQSAT2:
		return "qsat-phase2"
	case StageCache:
		return "cache"
	case StageFind:
		return "find"
	case StageEvaluate:
		return "evaluate"
	case StageModify:
		return "modify"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Stages lists all stages in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Batch accumulates the measurements of one processed batch.
type Batch struct {
	// BatchSize is the number of queries submitted.
	BatchSize int
	// RemainingQueries is how many queries were actually evaluated
	// against the tree after QTrans (equals BatchSize when QTrans is
	// off). The paper's "query reduction ratio" is 1 - Remaining/Size.
	RemainingQueries int
	// InferredReturns counts search answers produced by inference
	// rather than tree evaluation.
	InferredReturns int
	// CacheHits / CacheMisses / CacheFlushes / CacheEvictions count
	// top-K cache operations (inter-batch optimization). Evictions can
	// exceed flushes: evicting a clean entry owes no write-back.
	CacheHits, CacheMisses, CacheFlushes, CacheEvictions int
	// QSATSkipped is 1 for an engine batch whose duplicate share was
	// below the Adaptive gate's crossover, so it went to the tree
	// unreduced, and 0 otherwise. CacheOn is 1 for an engine batch that
	// ran with the top-K cache mode on. AddTo sums both, so over shards
	// or a run they count batches.
	QSATSkipped, CacheOn int
	// CacheModeSwitches counts cache mode changes (on to off or back)
	// and CacheDrains whole-cache drains: the one that switches the
	// cache off and the one every scan/RMW batch runs while it is on.
	CacheModeSwitches, CacheDrains int
	// FenceHits counts Stage-1 descents skipped entirely because the
	// previous descent's leaf fences covered the key (path-reuse kernel,
	// DESIGN.md §8).
	FenceHits int
	// Splits counts node splits (leaf, internal, and root) performed by
	// the batch's restructuring — the Stage-3 cost the gapped layout
	// (DESIGN.md §10) exists to shrink.
	Splits int
	// GapClaims counts inserts absorbed by the gap at their insertion
	// point in O(1).
	GapClaims int
	// ShiftedSlots counts key/value slots physically moved or rewritten
	// to keep nodes sorted: shift-to-nearest-gap moves, delete-run
	// rewrites, and the slots a merge-applied leaf is repacked with.
	ShiftedSlots int
	// ScanQueries counts range scans submitted in the batch.
	ScanQueries int
	// ScanRows counts rows returned across all of the batch's scans.
	ScanRows int
	// LeafOps[t] counts leaf-level operations performed by worker t
	// (Fig. 13's load-balance metric).
	LeafOps []int64
	// Elapsed[s] is wall-clock time spent in stage s.
	Elapsed [numStages]time.Duration
}

// NewBatch returns a Batch sized for the given worker count.
func NewBatch(workers int) *Batch {
	return &Batch{LeafOps: make([]int64, workers)}
}

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	lo := b.LeafOps
	for i := range lo {
		lo[i] = 0
	}
	*b = Batch{LeafOps: lo}
}

// Timer starts timing a stage; call Stop on the returned Stopwatch.
func (b *Batch) Timer(s Stage) Stopwatch {
	return Stopwatch{batch: b, stage: s, start: time.Now()}
}

// Stopwatch measures one stage interval.
type Stopwatch struct {
	batch *Batch
	stage Stage
	start time.Time
}

// Stop records the elapsed time onto the batch.
func (sw Stopwatch) Stop() {
	sw.batch.Elapsed[sw.stage] += time.Since(sw.start)
}

// ReductionRatio returns the fraction of queries eliminated by QTrans,
// in [0, 1].
func (b *Batch) ReductionRatio() float64 {
	if b.BatchSize == 0 {
		return 0
	}
	return 1 - float64(b.RemainingQueries)/float64(b.BatchSize)
}

// TotalElapsed sums all stage times.
func (b *Batch) TotalElapsed() time.Duration {
	var t time.Duration
	for _, d := range b.Elapsed {
		t += d
	}
	return t
}

// AddTo accumulates b's counters and timings into dst (used to total
// per-batch stats over a whole run).
func (b *Batch) AddTo(dst *Batch) {
	dst.BatchSize += b.BatchSize
	dst.RemainingQueries += b.RemainingQueries
	dst.InferredReturns += b.InferredReturns
	dst.CacheHits += b.CacheHits
	dst.CacheMisses += b.CacheMisses
	dst.CacheFlushes += b.CacheFlushes
	dst.CacheEvictions += b.CacheEvictions
	dst.QSATSkipped += b.QSATSkipped
	dst.CacheOn += b.CacheOn
	dst.CacheModeSwitches += b.CacheModeSwitches
	dst.CacheDrains += b.CacheDrains
	dst.FenceHits += b.FenceHits
	dst.Splits += b.Splits
	dst.GapClaims += b.GapClaims
	dst.ShiftedSlots += b.ShiftedSlots
	dst.ScanQueries += b.ScanQueries
	dst.ScanRows += b.ScanRows
	for i := range b.Elapsed {
		dst.Elapsed[i] += b.Elapsed[i]
	}
	for i, v := range b.LeafOps {
		if i < len(dst.LeafOps) {
			dst.LeafOps[i] += v
		}
	}
}

// LeafOpImbalance returns max/mean of per-thread leaf operations — 1.0
// is perfect balance. Threads with zero work are included in the mean.
func (b *Batch) LeafOpImbalance() float64 {
	if len(b.LeafOps) == 0 {
		return 1
	}
	var sum, maxv int64
	for _, v := range b.LeafOps {
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(b.LeafOps))
	return float64(maxv) / mean
}

// String renders a compact human-readable summary.
func (b *Batch) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch=%d remaining=%d (reduction %.1f%%) qsat-skipped=%d cache-on=%d",
		b.BatchSize, b.RemainingQueries, 100*b.ReductionRatio(), b.QSATSkipped, b.CacheOn)
	for _, s := range Stages() {
		if b.Elapsed[s] > 0 {
			fmt.Fprintf(&sb, " %s=%s", s, b.Elapsed[s].Round(time.Microsecond))
		}
	}
	return sb.String()
}

// LatencyRecorder collects per-batch latencies and reports the summary
// statistics of Table II.
type LatencyRecorder struct {
	samples []time.Duration
}

// Record adds one batch latency.
func (l *LatencyRecorder) Record(d time.Duration) { l.samples = append(l.samples, d) }

// Count returns the number of recorded samples.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean returns the average latency, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.samples {
		sum += d
	}
	return sum / time.Duration(len(l.samples))
}

// Percentile returns the p-th percentile latency (0 <= p <= 100).
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Max returns the largest recorded latency.
func (l *LatencyRecorder) Max() time.Duration {
	var m time.Duration
	for _, d := range l.samples {
		if d > m {
			m = d
		}
	}
	return m
}

// Throughput converts a query count and elapsed time into queries/sec.
func Throughput(queries int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(queries) / elapsed.Seconds()
}

// MemSnapshot captures the runtime allocation and GC counters relevant
// to steady-state batch processing (the allocation-sweep metrics: a
// batch pipeline that allocates per batch shows up directly as
// Mallocs/TotalAlloc growth and, eventually, GC pauses).
type MemSnapshot struct {
	Mallocs      uint64
	TotalAlloc   uint64
	PauseTotalNs uint64
	NumGC        uint32
}

// CaptureMem reads the current memory counters. It stops the world
// briefly; call it around a measured region, not inside one.
func CaptureMem() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{
		Mallocs:      ms.Mallocs,
		TotalAlloc:   ms.TotalAlloc,
		PauseTotalNs: ms.PauseTotalNs,
		NumGC:        ms.NumGC,
	}
}

// MemDelta is the growth between two snapshots.
type MemDelta struct {
	// Allocs is the number of heap objects allocated.
	Allocs uint64
	// Bytes is the cumulative bytes allocated.
	Bytes uint64
	// PauseNs is the total GC stop-the-world pause time.
	PauseNs uint64
	// GCs is the number of completed GC cycles.
	GCs uint32
}

// Sub returns the delta accumulated since prev.
func (s MemSnapshot) Sub(prev MemSnapshot) MemDelta {
	return MemDelta{
		Allocs:  s.Mallocs - prev.Mallocs,
		Bytes:   s.TotalAlloc - prev.TotalAlloc,
		PauseNs: s.PauseTotalNs - prev.PauseTotalNs,
		GCs:     s.NumGC - prev.NumGC,
	}
}

// PerBatch scales the delta to per-batch figures (allocs/batch,
// bytes/batch). n <= 0 returns zeros.
func (d MemDelta) PerBatch(n int) (allocs, bytes float64) {
	if n <= 0 {
		return 0, 0
	}
	return float64(d.Allocs) / float64(n), float64(d.Bytes) / float64(n)
}

// Shard accumulates the routing and rebalancing counters of a
// range-partitioned sharded engine (internal/shard): how many queries
// each shard received, how evenly the splitter spread the load, and how
// much key migration the boundary moves caused. The shard count is
// fixed, so every counter is a plain atomic: the stream splitter
// goroutine records routing while other goroutines read snapshots.
type Shard struct {
	// Routed[s] counts queries routed to shard s since creation.
	Routed []int64
	// Batches counts batches split across the shards.
	Batches int64
	// Migrated counts keys that changed shard across all rebalances and
	// autoshard boundary moves.
	Migrated int64
	// Rebalances counts boundary recomputations (manual Rebalance calls).
	Rebalances int64
	// Moves counts autoshard incremental boundary moves.
	Moves int64
}

// NewShard returns a Shard stats block for n shards.
func NewShard(n int) *Shard {
	return &Shard{Routed: make([]int64, n)}
}

// RecordRouted adds n routed queries to shard s.
func (s *Shard) RecordRouted(shard, n int) {
	atomic.AddInt64(&s.Routed[shard], int64(n))
}

// RecordBatch counts one split batch.
func (s *Shard) RecordBatch() { atomic.AddInt64(&s.Batches, 1) }

// RecordRebalance counts one completed rebalance. The pair moves it
// performed were already folded into Moves/Migrated by RecordMove —
// the rebalance path runs on the same bounded boundary moves as the
// autoshard controller.
func (s *Shard) RecordRebalance() {
	atomic.AddInt64(&s.Rebalances, 1)
}

// RecordMove counts one autoshard boundary move that migrated n keys.
func (s *Shard) RecordMove(migrated int) {
	atomic.AddInt64(&s.Moves, 1)
	atomic.AddInt64(&s.Migrated, int64(migrated))
}

// RoutedTotal returns the total number of routed queries.
func (s *Shard) RoutedTotal() int64 {
	var sum int64
	for i := range s.Routed {
		sum += atomic.LoadInt64(&s.Routed[i])
	}
	return sum
}

// Imbalance returns max/mean of the per-shard routed-query counts — 1.0
// is a perfectly even spread, n means one shard took all the load.
// Returns 1 when nothing has been routed.
func (s *Shard) Imbalance() float64 {
	if len(s.Routed) == 0 {
		return 1
	}
	var sum, maxv int64
	for i := range s.Routed {
		v := atomic.LoadInt64(&s.Routed[i])
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(maxv) / (float64(sum) / float64(len(s.Routed)))
}

// String renders a compact summary, e.g.
// "shards=4 routed=[10 20 30 40] imbalance=1.60 rebalances=1 migrated=12 moves=3".
func (s *Shard) String() string {
	routed := make([]int64, len(s.Routed))
	for i := range routed {
		routed[i] = atomic.LoadInt64(&s.Routed[i])
	}
	return fmt.Sprintf("shards=%d routed=%v imbalance=%.2f rebalances=%d migrated=%d moves=%d",
		len(s.Routed), routed, s.Imbalance(),
		atomic.LoadInt64(&s.Rebalances), atomic.LoadInt64(&s.Migrated),
		atomic.LoadInt64(&s.Moves))
}
