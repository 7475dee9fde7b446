package batcher

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/metrics"
)

// gatedProc is a Processor that blocks inside ProcessBatch until
// released, recording the batches it was handed. It simulates a slow or
// wedged engine so tests can observe the batcher's behavior while the
// dispatcher is stalled mid-batch.
type gatedProc struct {
	gate    chan struct{} // each receive releases one ProcessBatch call
	entered chan struct{} // a token once a ProcessBatch call is under way
	mu      sync.Mutex
	batches [][]keys.Query
}

func newGatedProc() *gatedProc {
	return &gatedProc{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
}

func (p *gatedProc) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	select {
	case p.entered <- struct{}{}:
	default: // an earlier call's token is still unread
	}
	<-p.gate
	p.mu.Lock()
	p.batches = append(p.batches, append([]keys.Query(nil), qs...))
	p.mu.Unlock()
	for i := range qs {
		if qs[i].Op == keys.OpSearch {
			rs.Set(qs[i].Idx, keys.Value(qs[i].Key), true) // echo the key as the value
		}
	}
}

// release lets n in-flight or future ProcessBatch calls finish.
func (p *gatedProc) release(n int) {
	for i := 0; i < n; i++ {
		p.gate <- struct{}{}
	}
}

// stall submits q on an idle batcher and returns once the processor is
// blocked on it, so everything submitted next queues behind a busy
// processor.
func stall(t *testing.T, b *Batcher, p *gatedProc, q keys.Query) *Future {
	t.Helper()
	f, err := b.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	<-p.entered
	return f
}

// TestSizeTriggeredFlush: MaxBatch still cuts full batches while the
// processor is busy. With the processor stalled, 3×MaxBatch submits add
// exactly three batches to Load's backlog and leave nothing pending, so
// the shed signal admission control reads stays live.
func TestSizeTriggeredFlush(t *testing.T) {
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 4})
	defer b.Close()
	stall(t, b, proc, keys.Search(1000))

	for i := 0; i < 3*4; i++ {
		if _, err := b.Submit(keys.Insert(keys.Key(i), 1)); err != nil {
			t.Fatal(err)
		}
		if pending, backlog := b.Load(); pending != (i+1)%4 || backlog != 1+(i+1)/4 {
			t.Fatalf("after %d stalled submits Load = (%d pending, %d backlog), want (%d, %d)",
				i+1, pending, backlog, (i+1)%4, 1+(i+1)/4)
		}
	}
	close(proc.gate)
}

// TestGroupCommitCoalescesDuringStall: queries submitted while the
// processor holds batch 1 form exactly one next batch, taken whole the
// moment the processor goes idle.
func TestGroupCommitCoalescesDuringStall(t *testing.T) {
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 1 << 20})
	defer b.Close()
	stall(t, b, proc, keys.Search(1000))

	const k = 37
	futs := make([]*Future, k)
	for i := range futs {
		f, err := b.Submit(keys.Search(keys.Key(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	close(proc.gate)
	for i, f := range futs {
		if res, ok := f.Get(); !ok || res.Value != keys.Value(i) {
			t.Fatalf("future %d = %+v, %v", i, res, ok)
		}
	}
	if batches, queries := b.Stats(); batches != 2 || queries != k+1 {
		t.Fatalf("Stats = %d batches, %d queries; want 2, %d", batches, queries, k+1)
	}
	proc.mu.Lock()
	defer proc.mu.Unlock()
	if n := len(proc.batches[1]); n != k {
		t.Fatalf("second batch holds %d queries, want %d", n, k)
	}
}

// TestWaitAndExecHistograms pins the queue/execute split on a manual
// clock: batcher_wait_ns is the age of a batch's oldest query when
// processing starts, batcher_exec_ns the processing wall.
func TestWaitAndExecHistograms(t *testing.T) {
	clk := metrics.NewManual(time.Unix(0, 0))
	reg := metrics.NewWithClock(clk)
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 64, Metrics: reg})
	defer b.Close()

	stall(t, b, proc, keys.Search(1)) // starts as it arrives: waits 0
	f, err := b.Submit(keys.Search(2))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Millisecond) // batch 1 runs 3ms while query 2 waits
	proc.release(1)
	<-proc.entered
	clk.Advance(2 * time.Millisecond) // batch 2 runs 2ms
	proc.release(1)
	f.Get()

	snap := reg.Snapshot()
	for _, c := range []struct {
		name     string
		min, max time.Duration
	}{
		{"batcher_wait_ns", 0, 3 * time.Millisecond},
		{"batcher_exec_ns", 2 * time.Millisecond, 3 * time.Millisecond},
	} {
		h := snap.Histograms[c.name]
		if h.Count != 2 || h.Min != int64(c.min) || h.Max != int64(c.max) {
			t.Fatalf("%s = count %d, min %d, max %d; want 2, %d, %d", c.name, h.Count, h.Min, h.Max, c.min, c.max)
		}
	}
}

// TestSubmitNotBlockedByStalledDispatcher is the regression test for
// the lock-held dispatch stall: flushLocked used to send on a bounded
// channel (capacity 4) while holding b.mu, so once the processor fell 4
// batches behind, the next flush parked with the mutex held and every
// Submit and Close froze with it. With the unbounded hand-off
// the submit path must stay live no matter how far behind the
// processor is.
func TestSubmitNotBlockedByStalledDispatcher(t *testing.T) {
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 1})

	// Far more flushed batches than the old channel capacity (4), all
	// while the processor is stuck inside its first ProcessBatch call.
	const batches = 64
	done := make(chan []*Future, 1)
	go func() {
		futs := make([]*Future, 0, batches)
		for i := 0; i < batches; i++ {
			f, err := b.Submit(keys.Search(keys.Key(i)))
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				break
			}
			futs = append(futs, f)
		}
		done <- futs
	}()

	var futs []*Future
	select {
	case futs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit blocked behind the stalled dispatcher (lock-held dispatch stall)")
	}

	if pending, backlog := b.Load(); pending != 0 || backlog != batches {
		t.Fatalf("Load = (%d pending, %d backlog), want (0, %d)", pending, backlog, batches)
	}

	proc.release(batches)
	for i, f := range futs {
		res, ok := f.Get()
		if !ok || !res.Found || res.Value != keys.Value(i) {
			t.Fatalf("future %d = %+v, %v", i, res, ok)
		}
	}
	b.Close()
}

// TestGaugesLiveDuringProcessorStall pins the observability half of the
// regression: while the processor is wedged, the queue-depth gauge must
// keep tracking new submissions and the dispatch-backlog gauge must
// report how far behind the processor is — these are exactly the
// signals admission control sheds on, and the old lock-held send froze
// both.
func TestGaugesLiveDuringProcessorStall(t *testing.T) {
	reg := metrics.New()
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 4, Metrics: reg})
	defer b.Close()
	stall(t, b, proc, keys.Search(1000))

	// Fill 3 whole batches behind the stalled one.
	for i := 0; i < 12; i++ {
		if _, err := b.Submit(keys.Insert(keys.Key(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Now trickle 3 more queries in — under the stall the gauge must
	// still move with each Submit.
	for i := 0; i < 3; i++ {
		if _, err := b.Submit(keys.Insert(keys.Key(100+i), 1)); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if got := snap.Gauges["batcher_queue_depth"]; got != int64(i+1) {
			t.Fatalf("queue_depth after %d stalled submits = %d, want %d", i+1, got, i+1)
		}
		if got := snap.Gauges["batcher_dispatch_backlog"]; got != 4 {
			t.Fatalf("dispatch_backlog during stall = %d, want 4", got)
		}
	}
	close(proc.gate)
}

// TestDispatchOrderPreservedUnderStall verifies the hand-off queue
// preserves flush order even when many batches pile up behind a stalled
// processor — batches must reach the processor in exactly the order
// flushLocked emitted them, or as-if-serial semantics break.
func TestDispatchOrderPreservedUnderStall(t *testing.T) {
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 2})
	stall(t, b, proc, keys.Insert(0, 0))

	const batches = 32
	for i := 0; i < 2*batches; i++ {
		if _, err := b.Submit(keys.Insert(keys.Key(1+i), keys.Value(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(proc.gate)
	b.Close()

	if len(proc.batches) != 1+batches {
		t.Fatalf("processed %d batches, want %d", len(proc.batches), 1+batches)
	}
	next := keys.Key(0)
	for bi, qs := range proc.batches {
		for _, q := range qs {
			if q.Key != next {
				t.Fatalf("batch %d out of order: key %d, want %d", bi, q.Key, next)
			}
			next++
		}
	}
}

// TestScanFutureRows exercises the Future scan side channel: a
// submitted range scan resolves with its rows, point futures report
// ok == false from Rows, and the returned slice is a caller-owned copy
// (it survives the batch storage being reset for the next batch).
func TestScanFutureRows(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		b := New(newEngine(t), Config{MaxBatch: 8, Pipeline: pipeline})

		for i := 0; i < 5; i++ {
			if _, err := b.Submit(keys.Insert(keys.Key(10+i), keys.Value(100+i))); err != nil {
				t.Fatal(err)
			}
		}
		scanF, err := b.Submit(keys.Scan(10, 13, 0))
		if err != nil {
			t.Fatal(err)
		}
		pointF, err := b.Submit(keys.Search(11))
		if err != nil {
			t.Fatal(err)
		}
		limitF, err := b.Submit(keys.Scan(10, 15, 2))
		if err != nil {
			t.Fatal(err)
		}
		emptyF, err := b.Submit(keys.Scan(1000, 2000, 0))
		if err != nil {
			t.Fatal(err)
		}

		rows, ok := scanF.Rows()
		if !ok || len(rows) != 3 {
			t.Fatalf("pipeline=%v: scan rows = %v, %v; want 3 rows", pipeline, rows, ok)
		}
		for i, kv := range rows {
			if kv.Key != keys.Key(10+i) || kv.Value != keys.Value(100+i) {
				t.Fatalf("pipeline=%v: row %d = %+v", pipeline, i, kv)
			}
		}
		if res, ok := scanF.Get(); !ok || res.Value != 3 {
			t.Fatalf("pipeline=%v: scan point result = %+v, %v; want rowcount 3", pipeline, res, ok)
		}
		if _, ok := pointF.Rows(); ok {
			t.Fatalf("pipeline=%v: point future reported scan rows", pipeline)
		}
		if rows, ok := limitF.Rows(); !ok || len(rows) != 2 {
			t.Fatalf("pipeline=%v: limited scan rows = %v, %v; want 2 rows", pipeline, rows, ok)
		}
		if rows, ok := emptyF.Rows(); !ok || len(rows) != 0 {
			t.Fatalf("pipeline=%v: empty scan = %v, %v; want ok with no rows", pipeline, rows, ok)
		}

		// Push more batches through to recycle the batch result storage,
		// then re-check the copied rows are untouched.
		for i := 0; i < 64; i++ {
			if _, err := b.Submit(keys.Insert(keys.Key(5000+i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		rows, _ = scanF.Rows()
		for i, kv := range rows {
			if kv.Key != keys.Key(10+i) || kv.Value != keys.Value(100+i) {
				t.Fatalf("pipeline=%v: row %d corrupted after storage reuse: %+v", pipeline, i, kv)
			}
		}
	}
}

// TestRMWFutureResult checks RMW submissions resolve with the
// pre-update value through the ordinary point-result path.
func TestRMWFutureResult(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 1 << 20})
	defer b.Close()

	f1, err := b.Submit(keys.AddDelta(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := b.Submit(keys.AddDelta(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	f3, err := b.Submit(keys.SetIfAbsent(7, 99))
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := f1.Get(); !ok || res.Found || res.Value != 0 {
		t.Fatalf("first AddDelta = %+v, %v; want absent pre-state", res, ok)
	}
	if res, ok := f2.Get(); !ok || !res.Found || res.Value != 5 {
		t.Fatalf("second AddDelta = %+v, %v; want pre-value 5", res, ok)
	}
	if res, ok := f3.Get(); !ok || !res.Found || res.Value != 10 {
		t.Fatalf("SetIfAbsent = %+v, %v; want existing value 10", res, ok)
	}
}

// TestConcurrentSubmitFlushCloseUnderStall is the -race hammer for the
// fixed hand-off: many submitters, the dispatcher's group-commit takes
// (the batcher's only flush), and a closer race against a deliberately
// slow processor. Every future must resolve exactly once
// and the batcher must shut down cleanly.
func TestConcurrentSubmitFlushCloseUnderStall(t *testing.T) {
	proc := newGatedProc()
	b := New(proc, Config{MaxBatch: 8})

	// Drip-feed the processor from the side so batches drain slowly but
	// steadily while the hammer runs.
	stop := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		for {
			select {
			case <-stop:
				// Unconditionally drain whatever is still gated.
				for {
					select {
					case proc.gate <- struct{}{}:
					default:
						return
					}
				}
			case proc.gate <- struct{}{}:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	var resolved atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := b.Submit(keys.Insert(keys.Key(w*1000+i), keys.Value(i)))
				if err != nil {
					return // closed under us: fine
				}
				go func() {
					<-f.Done()
					resolved.Add(1)
				}()
			}
		}(w)
	}
	wg.Wait()
	b.Close()
	close(stop)
	feeder.Wait()
	// After Close returns every accepted future must already be
	// resolved; give the counting goroutines a moment to observe it.
	deadline := time.After(5 * time.Second)
	_, queries := b.Stats()
	for resolved.Load() < queries {
		select {
		case <-deadline:
			t.Fatalf("resolved %d of %d accepted futures", resolved.Load(), queries)
		case <-time.After(time.Millisecond):
		}
	}
}
