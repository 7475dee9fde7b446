// Package bsp provides the bulk-synchronous-parallel runtime substrate
// underneath the PALM batch processor and the parallel QTrans optimizer:
// a reusable fixed-size worker pool with barrier semantics, data-parallel
// loops, parallel prefix sums, and a parallel stable sort for query
// batches.
//
// The paper's artifact builds these from Pthreads and boost; here they are
// built from goroutines and channels. A Pool amortizes goroutine startup
// across the many supersteps of a batch: workers are spawned once and fed
// one closure per superstep, with the Run call acting as the barrier.
package bsp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/keys"
)

// Pool is a fixed set of worker goroutines executing supersteps. Each call
// to Run dispatches one function to all workers and returns when every
// worker has finished — the implicit BSP barrier.
//
// A Pool must be created with NewPool and released with Close. It is not
// safe to call Run concurrently from multiple goroutines.
type Pool struct {
	n     int
	work  []chan func(tid int)
	done  chan struct{}
	close sync.Once
	wg    sync.WaitGroup

	// inline makes Run execute a superstep on the calling goroutine
	// (see SetInline); dispatched counts the supersteps handed to the
	// workers instead.
	inline     bool
	dispatched atomic.Uint64

	// Sort scratch reused across RadixSortQueries calls. Because Run
	// (and therefore sorting) has a single caller per pool, one scratch
	// set per pool suffices; holding it here makes steady-state batch
	// sorting allocation-free.
	sortBuf []keys.Query
	tally   []radixTally
	job     radixJob
}

// NewPool creates a pool of n workers. n <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		n:    n,
		work: make([]chan func(tid int), n),
		done: make(chan struct{}),
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.work[i] = make(chan func(tid int))
		go p.worker(i)
	}
	p.initRadix()
	return p
}

func (p *Pool) worker(tid int) {
	defer p.wg.Done()
	for fn := range p.work[tid] {
		fn(tid)
		p.done <- struct{}{}
	}
}

// N returns the number of workers.
func (p *Pool) N() int { return p.n }

// Run executes fn(tid) on every worker, tid in [0, N), and blocks until
// all have completed (the BSP barrier). In inline mode it calls fn(0)
// … fn(N-1) in order on the calling goroutine instead.
func (p *Pool) Run(fn func(tid int)) {
	if p.inline {
		for tid := 0; tid < p.n; tid++ {
			fn(tid)
		}
		return
	}
	p.dispatched.Add(1)
	for i := 0; i < p.n; i++ {
		p.work[i] <- fn
	}
	for i := 0; i < p.n; i++ {
		<-p.done
	}
}

// SetInline switches inline mode on or off. Inline mode keeps every
// tid's share of a superstep, and the scratch indexed by tid, exactly
// as in parallel execution; only the workers' handoff and barrier go.
// That is sound because no superstep waits on another tid within
// itself. Like Run, it must be called from the pool's single caller.
func (p *Pool) SetInline(on bool) { p.inline = on }

// Dispatched returns the number of supersteps Run has handed to the
// workers since the pool was created. Inline supersteps do not count.
func (p *Pool) Dispatched() uint64 { return p.dispatched.Load() }

// Close shuts the pool down. The pool must not be used afterwards.
func (p *Pool) Close() {
	p.close.Do(func() {
		for i := 0; i < p.n; i++ {
			close(p.work[i])
		}
		p.wg.Wait()
	})
}

// Range computes the half-open slice range [lo, hi) owned by worker tid
// when n items are divided as evenly as possible among p.N() workers.
// The first n%N workers receive one extra item, so any two workers'
// shares differ by at most one.
func (p *Pool) Range(tid, n int) (lo, hi int) {
	return SplitRange(tid, p.n, n)
}

// SplitRange divides n items among workers workers and returns worker
// tid's half-open range. Shares differ by at most one item.
func SplitRange(tid, workers, n int) (lo, hi int) {
	if workers <= 0 {
		panic(fmt.Sprintf("bsp: SplitRange with %d workers", workers))
	}
	q, r := n/workers, n%workers
	lo = tid*q + min(tid, r)
	hi = lo + q
	if tid < r {
		hi++
	}
	return lo, hi
}

// For runs body(tid, lo, hi) on every worker with the even partition of
// [0, n) produced by Range, then barriers.
func (p *Pool) For(n int, body func(tid, lo, hi int)) {
	p.Run(func(tid int) {
		lo, hi := p.Range(tid, n)
		body(tid, lo, hi)
	})
}

// ExclusiveScan computes, in place, the exclusive prefix sum of counts
// and returns the grand total. counts[i] becomes the sum of the original
// counts[0:i]. This is the prefix-sum primitive behind QTrans's
// lightweight load balancing (§V-A) and the BSP shuffles.
//
// The scan is sequential: it runs in O(len(counts)) with len(counts)
// proportional to the worker count or key count, which profiling shows is
// never a bottleneck next to tree traversal; a work-efficient parallel
// scan is provided by ParallelExclusiveScan for the large-array case.
func ExclusiveScan(counts []int) int {
	total := 0
	for i, c := range counts {
		counts[i] = total
		total += c
	}
	return total
}

// ParallelExclusiveScan computes the exclusive prefix sum of counts in
// place using the pool, returning the total. It uses the classic
// two-pass (local scan, offset fix-up) work-efficient scheme.
func (p *Pool) ParallelExclusiveScan(counts []int) int {
	n := len(counts)
	if n < 4096 || p.n == 1 {
		return ExclusiveScan(counts)
	}
	sums := make([]int, p.n)
	p.Run(func(tid int) {
		lo, hi := p.Range(tid, n)
		local := 0
		for i := lo; i < hi; i++ {
			c := counts[i]
			counts[i] = local
			local += c
		}
		sums[tid] = local
	})
	total := ExclusiveScan(sums)
	p.Run(func(tid int) {
		lo, hi := p.Range(tid, n)
		off := sums[tid]
		if off == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			counts[i] += off
		}
	})
	return total
}
