// Package batcher turns the batch-oriented engine into an online query
// service: callers submit individual queries and receive futures; the
// batcher groups them into batches by group commit. Queries that arrive
// while the processor is busy accumulate, and the moment it goes idle
// whatever is pending becomes the next batch. Batch size therefore
// follows load: one query on an idle server, and under load whatever
// arrived during the previous batch, up to MaxBatch.
//
// This implements the online-processing regime of §VI-D: "we can
// always trade our high throughput for faster response time by using a
// smaller batch size" — MaxBatch bounds throughput-oriented batching,
// and no query ever waits on a timer while the processor is idle. A
// query's worst-case wait is the batch in progress when it arrived
// plus its own batch's processing time, unless full MaxBatch batches
// are already queued ahead of it (the backlog Load reports).
//
// The submit path never waits on the dispatcher: full batches are
// handed off through an unbounded FIFO under the submit mutex and the
// dispatcher drains it at its own pace, so a slow or backlogged
// processor cannot stall Submit, Close, or the queue-depth gauge.
// Backpressure is a policy decision for the caller: Load exposes the
// congestion signals (pending queries, dispatched-but-unprocessed
// batches) that admission control (internal/server) sheds on.
package batcher

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
)

// Processor evaluates one batch; core.Engine and palm.Processor both
// satisfy it.
type Processor interface {
	ProcessBatch(qs []keys.Query, rs *keys.ResultSet)
}

// StreamProcessor additionally evaluates a stream of batches with
// pipelined execution; core.Engine satisfies it.
type StreamProcessor interface {
	Processor
	ProcessStream(in <-chan *core.Job, emit func(*core.Job))
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("batcher: closed")

// Future delivers one query's outcome once its batch has executed.
type Future struct {
	done chan struct{}
	res  keys.Result
	rows []keys.KV // scan rows (copied out of batch storage; scans only)
	ok   bool      // a result was recorded (searches, scans, RMWs)
	scan bool      // the submitted query was a range scan
}

// Get blocks until the query's batch has executed, returning the point
// result. ok is false for insert/delete futures (which carry no
// result) — Get still blocks until the mutation is applied. For scans
// the result holds the row count; for RMWs the pre-update value.
func (f *Future) Get() (res keys.Result, ok bool) {
	<-f.done
	return f.res, f.ok
}

// Rows blocks until the query's batch has executed and returns the
// range-scan rows in ascending key order. ok is false when the
// submitted query was not a scan; an empty scan yields ok == true with
// no rows. The slice is owned by the caller (rows are copied out of the
// batch's reusable storage before the future resolves).
func (f *Future) Rows() (rows []keys.KV, ok bool) {
	<-f.done
	return f.rows, f.scan
}

// Done returns a channel closed when the batch has executed.
func (f *Future) Done() <-chan struct{} { return f.done }

// Config tunes a Batcher.
type Config struct {
	// MaxBatch caps a batch (<= 0: 4096). While the processor is busy,
	// every MaxBatch pending queries are cut into a batch and queued;
	// when it goes idle, the pending remainder is taken whatever its
	// size. With TargetLatency set, this is only the starting point.
	MaxBatch int
	// TargetLatency, when positive, enables auto-tuning of the batch
	// size: after each dispatched batch the size cap is nudged so that
	// batch processing time approaches the target — the §VI-D
	// throughput/latency trade as a controller ("we can always trade
	// our high throughput for faster response time by using a smaller
	// batch size"). The cap stays within [MinBatch, MaxBatchLimit].
	TargetLatency time.Duration
	// MinBatch bounds auto-tuning from below (<= 0: 64).
	MinBatch int
	// MaxBatchLimit bounds auto-tuning from above (<= 0: 1<<20).
	MaxBatchLimit int
	// Pipeline feeds dispatched batches through the processor's
	// ProcessStream so the transform of one batch overlaps the tree
	// stages of the previous one. Requires a StreamProcessor; ignored
	// (serial dispatch) otherwise. The dispatcher may then hold one
	// batch ready ahead of the pipeline, so a query's worst-case wait
	// grows by that batch. TargetLatency auto-tuning is unavailable in
	// pipelined mode: batches overlap, so a single batch's processing
	// time cannot be attributed — Pipeline takes precedence and the cap
	// stays at MaxBatch.
	Pipeline bool
	// Metrics, when non-nil, receives queue-depth (batcher_queue_depth
	// gauge), dispatch backlog (batcher_dispatch_backlog gauge:
	// dispatched-but-unprocessed batches), dispatched batch sizes
	// (batcher_batch_size histogram), batch-fill ratio in per-mille of
	// the current cap (batcher_fill_permille histogram), the age of a
	// batch's oldest query when processing starts (batcher_wait_ns
	// histogram) and the processing wall of each serially dispatched
	// batch (batcher_exec_ns histogram), timed on the registry's clock.
	// Nil adds no overhead.
	Metrics *metrics.Registry
}

// Batcher accumulates queries into batches for a Processor. Safe for
// concurrent Submit from many goroutines; batches are dispatched by a
// single background goroutine, so the Processor needs no internal
// locking.
type Batcher struct {
	proc Processor
	cfg  Config

	// batchCap is the current size cap; atomic because the dispatcher
	// goroutine retunes it while submitters read it.
	batchCap atomic.Int64

	mu      sync.Mutex
	pending []keys.Query
	futures []*Future
	oldest  time.Time // arrival of pending[0] (registry clock; metrics only)
	closed  bool

	// sendq holds full batches Submit cut while the processor was busy,
	// in cut order; next pops them before taking any pending remainder.
	// It is unbounded on purpose — the submit path must never wait on
	// the dispatcher (a bounded channel here once stalled every
	// Submit/Close behind a slow processor, with b.mu held across the
	// blocking send). wake (capacity 1) nudges a parked dispatcher; a
	// buffered token is never lost, so no wakeup is missed.
	sendq []dispatchReq
	wake  chan struct{}
	wg    sync.WaitGroup

	// inflight counts batches handed to the dispatcher and not yet
	// fully processed — the congestion signal admission control sheds
	// on (see Load).
	inflight atomic.Int64

	// stats
	batches int64
	queries int64

	// Metric handles (nil when Config.Metrics is nil).
	queueDepth   *metrics.Gauge
	backlog      *metrics.Gauge
	batchSize    *metrics.Histogram
	fillPermille *metrics.Histogram
	waitNs       *metrics.Histogram
	execNs       *metrics.Histogram
}

type dispatchReq struct {
	qs    []keys.Query
	futs  []*Future
	since time.Time // arrival of qs[0] (metrics only)
}

// New creates a Batcher over proc.
func New(proc Processor, cfg Config) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MinBatch <= 0 {
		cfg.MinBatch = 64
	}
	if cfg.MaxBatchLimit <= 0 {
		cfg.MaxBatchLimit = 1 << 20
	}
	// The tuning bounds only constrain the cap when tuning is on; a
	// fixed MaxBatch (even 1) is honored verbatim otherwise.
	if cfg.TargetLatency > 0 {
		if cfg.MaxBatch < cfg.MinBatch {
			cfg.MaxBatch = cfg.MinBatch
		}
		if cfg.MaxBatch > cfg.MaxBatchLimit {
			cfg.MaxBatch = cfg.MaxBatchLimit
		}
	}
	b := &Batcher{
		proc: proc,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
	}
	if cfg.Metrics != nil {
		b.queueDepth = cfg.Metrics.Gauge("batcher_queue_depth")
		b.backlog = cfg.Metrics.Gauge("batcher_dispatch_backlog")
		b.batchSize = cfg.Metrics.Histogram("batcher_batch_size")
		b.fillPermille = cfg.Metrics.Histogram("batcher_fill_permille")
		b.waitNs = cfg.Metrics.Histogram("batcher_wait_ns")
		b.execNs = cfg.Metrics.Histogram("batcher_exec_ns")
	}
	b.batchCap.Store(int64(cfg.MaxBatch))
	b.wg.Add(1)
	if sp, ok := proc.(StreamProcessor); ok && cfg.Pipeline {
		go b.runStream(sp)
	} else {
		go b.run()
	}
	return b
}

// next blocks until a batch is available and pops it, or returns
// ok == false once the batcher is closed and nothing is left. Full
// batches queued by Submit leave first, in cut order; when none is
// queued, whatever is pending becomes the batch (group commit). Only
// the dispatcher goroutine calls it; it holds b.mu just long enough to
// pop, never while the processor runs.
func (b *Batcher) next() (req dispatchReq, ok bool) {
	for {
		b.mu.Lock()
		switch {
		case len(b.sendq) > 0:
			req, ok = b.sendq[0], true
			b.sendq[0] = dispatchReq{} // drop references for GC
			b.sendq = b.sendq[1:]
			if len(b.sendq) == 0 {
				b.sendq = nil // release the drained backing array
			}
		case len(b.pending) > 0:
			req, ok = b.cutLocked(), true
		}
		closed := b.closed
		b.mu.Unlock()
		if ok || closed {
			return req, ok
		}
		<-b.wake
	}
}

// started records how long req's oldest query waited and returns the
// instant processing starts, on the registry's clock. Metrics only.
func (b *Batcher) started(req dispatchReq) time.Time {
	now := b.cfg.Metrics.Now()
	b.waitNs.Observe(now.Sub(req.since))
	return now
}

// complete resolves one batch's futures from its result set, copying
// scan rows out of the reusable batch storage, and retires the batch
// from the backlog count.
func (b *Batcher) complete(futs []*Future, rs *keys.ResultSet) {
	for i, f := range futs {
		f.res, f.ok = rs.Get(int32(i))
		if f.scan {
			if rows, ok := rs.ScanRows(int32(i)); ok && len(rows) > 0 {
				f.rows = append(make([]keys.KV, 0, len(rows)), rows...)
			}
		}
		close(f.done)
	}
	n := b.inflight.Add(-1)
	if b.backlog != nil {
		b.backlog.Set(n)
	}
}

// runStream is the pipelined dispatcher: batches flow through the
// processor's ProcessStream, with the futures carried on the job's Tag.
// Completion order equals dispatch order (ProcessStream guarantees it).
// The feeding goroutine takes its next batch as soon as the pipeline
// accepts the previous one, so it can hold one batch ready ahead.
func (b *Batcher) runStream(sp StreamProcessor) {
	defer b.wg.Done()
	jobs := make(chan *core.Job)
	go func() {
		for {
			req, ok := b.next()
			if !ok {
				break
			}
			jobs <- &core.Job{Qs: req.qs, Tag: req.futs}
			if b.waitNs != nil {
				b.started(req)
			}
		}
		close(jobs)
	}()
	sp.ProcessStream(jobs, func(j *core.Job) {
		b.complete(j.Tag.([]*Future), j.RS)
	})
}

// run executes dispatched batches sequentially, feeding batch
// processing times back into the size controller when auto-tuning.
func (b *Batcher) run() {
	defer b.wg.Done()
	rs := keys.NewResultSet(0)
	for {
		req, ok := b.next()
		if !ok {
			return
		}
		rs.Reset(len(req.qs))
		var t0 time.Time
		if b.execNs != nil {
			t0 = b.started(req)
		}
		start := time.Now()
		b.proc.ProcessBatch(req.qs, rs)
		if b.execNs != nil {
			b.execNs.Observe(b.cfg.Metrics.Since(t0))
		}
		if b.cfg.TargetLatency > 0 {
			b.retune(len(req.qs), time.Since(start))
		}
		b.complete(req.futs, rs)
	}
}

// retune adjusts the batch-size cap toward the latency target using
// the measured per-query cost of the batch just processed, smoothed so
// one noisy batch cannot halve or quadruple the cap. It learns only
// from batches that say something about the cap: one that filled it
// (grow or shrink), or one that overran the target (shrink). A smaller
// batch taken on time was not cut by the cap; its per-query cost is
// mostly the fixed per-batch cost, so it would read as a reason to
// shrink the cap under light load.
func (b *Batcher) retune(batchLen int, took time.Duration) {
	cur := float64(b.batchCap.Load())
	if batchLen == 0 || took <= 0 || (float64(batchLen) < cur && took <= b.cfg.TargetLatency) {
		return
	}
	perQuery := float64(took) / float64(batchLen)
	ideal := float64(b.cfg.TargetLatency) / perQuery

	// Exponential smoothing toward the ideal; clamp step to [1/2, 2]x.
	next := cur + (ideal-cur)*0.5
	if next > 2*cur {
		next = 2 * cur
	}
	if next < cur/2 {
		next = cur / 2
	}
	if next < float64(b.cfg.MinBatch) {
		next = float64(b.cfg.MinBatch)
	}
	if next > float64(b.cfg.MaxBatchLimit) {
		next = float64(b.cfg.MaxBatchLimit)
	}
	b.batchCap.Store(int64(next))
}

// BatchCap returns the current batch-size cap (changes over time when
// auto-tuning).
func (b *Batcher) BatchCap() int {
	return int(b.batchCap.Load())
}

// Load reports the batcher's congestion signals: pending is the number
// of submitted queries not yet in a batch, backlog the number of
// dispatched batches the processor has not finished. While the
// processor is busy, backlog grows only by full MaxBatch batches. Both
// stay live while the processor is stalled — Submit never blocks
// behind the dispatcher — so admission control (internal/server) can
// shed on them.
func (b *Batcher) Load() (pending, backlog int) {
	b.mu.Lock()
	pending = len(b.pending)
	b.mu.Unlock()
	return pending, int(b.inflight.Load())
}

// Submit enqueues one query and returns its future. The query's Idx is
// assigned by the batcher; any caller-set Idx is ignored.
func (b *Batcher) Submit(q keys.Query) (*Future, error) {
	f := &Future{done: make(chan struct{}), scan: q.Op == keys.OpScan}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if len(b.pending) == 0 && b.waitNs != nil {
		b.oldest = b.cfg.Metrics.Now()
	}
	q.Idx = int32(len(b.pending))
	b.pending = append(b.pending, q)
	b.futures = append(b.futures, f)
	b.queries++
	if b.queueDepth != nil {
		b.queueDepth.Set(int64(len(b.pending)))
	}
	if len(b.pending) >= int(b.batchCap.Load()) {
		b.sendq = append(b.sendq, b.cutLocked())
	}
	b.mu.Unlock()
	b.signal()
	return f, nil
}

// cutLocked turns the pending queries into one batch and counts it as
// dispatched — O(1), so Submit, Close and the gauges stay live however
// far behind the processor is. Called with b.mu held.
func (b *Batcher) cutLocked() dispatchReq {
	req := dispatchReq{qs: b.pending, futs: b.futures, since: b.oldest}
	b.pending = nil
	b.futures = nil
	b.batches++
	if b.batchSize != nil {
		n := int64(len(req.qs))
		b.batchSize.Record(n)
		if c := b.batchCap.Load(); c > 0 {
			b.fillPermille.Record(n * 1000 / c)
		}
		b.queueDepth.Set(0)
	}
	n := b.inflight.Add(1)
	if b.backlog != nil {
		b.backlog.Set(n)
	}
	return req
}

// signal wakes a parked dispatcher without blocking.
func (b *Batcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default: // dispatcher already has a pending wakeup token
	}
}

// Close stops accepting queries, waits until every pending and
// dispatched query has been processed, and releases the dispatcher.
// Submit after Close fails with ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.signal()
	b.wg.Wait()
}

// Stats reports how many batches and queries have been dispatched.
func (b *Batcher) Stats() (batches, queries int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches, b.queries
}
