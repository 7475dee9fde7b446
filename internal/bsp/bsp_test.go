package bsp

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/keys"
)

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.N() < 1 {
		t.Fatalf("N = %d, want >= 1", p.N())
	}
}

func TestPoolRunVisitsEveryWorkerOnce(t *testing.T) {
	p := NewPool(7)
	defer p.Close()
	var visited [7]int32
	p.Run(func(tid int) { atomic.AddInt32(&visited[tid], 1) })
	for tid, c := range visited {
		if c != 1 {
			t.Errorf("worker %d ran %d times, want 1", tid, c)
		}
	}
}

func TestPoolRunBarriers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var counter int64
	for step := 0; step < 10; step++ {
		p.Run(func(tid int) { atomic.AddInt64(&counter, 1) })
		if got := atomic.LoadInt64(&counter); got != int64((step+1)*4) {
			t.Fatalf("after superstep %d counter = %d, want %d", step, got, (step+1)*4)
		}
	}
}

// TestPoolInlineRunsOnCaller checks inline mode: every tid runs once,
// in tid order, with no superstep handed to the workers, and switching
// it off restores dispatching.
func TestPoolInlineRunsOnCaller(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	p.Run(func(int) {})
	if got := p.Dispatched(); got != 1 {
		t.Fatalf("Dispatched after one Run = %d, want 1", got)
	}
	p.SetInline(true)
	var order []int // unsynchronized: inline tids share the caller's goroutine
	p.For(10, func(tid, lo, hi int) {
		if wlo, whi := p.Range(tid, 10); lo != wlo || hi != whi {
			t.Errorf("tid %d got [%d,%d), want [%d,%d)", tid, lo, hi, wlo, whi)
		}
		order = append(order, tid)
	})
	if want := []int{0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("inline tids ran as %v, want %v", order, want)
	}
	if got := p.Dispatched(); got != 1 {
		t.Fatalf("Dispatched after an inline Run = %d, want 1", got)
	}
	p.SetInline(false)
	p.Run(func(int) {})
	if got := p.Dispatched(); got != 2 {
		t.Fatalf("Dispatched after inline off = %d, want 2", got)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestSplitRangeCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 17, 1000} {
			prev := 0
			for tid := 0; tid < workers; tid++ {
				lo, hi := SplitRange(tid, workers, n)
				if lo != prev {
					t.Fatalf("workers=%d n=%d tid=%d: lo=%d, want %d", workers, n, tid, lo, prev)
				}
				if hi < lo {
					t.Fatalf("workers=%d n=%d tid=%d: hi=%d < lo=%d", workers, n, tid, hi, lo)
				}
				if hi-lo > n/workers+1 {
					t.Fatalf("workers=%d n=%d tid=%d: share %d too large", workers, n, tid, hi-lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("workers=%d n=%d: covered %d, want %d", workers, n, prev, n)
			}
		}
	}
}

func TestSplitRangeBalanced(t *testing.T) {
	// Shares differ by at most one.
	for tid := 0; tid < 5; tid++ {
		lo, hi := SplitRange(tid, 5, 12)
		if s := hi - lo; s != 2 && s != 3 {
			t.Errorf("tid %d share = %d, want 2 or 3", tid, s)
		}
	}
}

func TestSplitRangePanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SplitRange with 0 workers must panic")
		}
	}()
	SplitRange(0, 0, 10)
}

func TestPoolFor(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 1000
	out := make([]int32, n)
	p.For(n, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&out[i], 1)
		}
	})
	for i, c := range out {
		if c != 1 {
			t.Fatalf("index %d touched %d times", i, c)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	counts := []int{3, 0, 2, 5}
	total := ExclusiveScan(counts)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := []int{0, 3, 3, 5}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestExclusiveScanEmpty(t *testing.T) {
	if total := ExclusiveScan(nil); total != 0 {
		t.Fatalf("total = %d, want 0", total)
	}
}

func TestParallelExclusiveScanMatchesSequential(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 4096, 10000} {
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(5)
			b[i] = a[i]
		}
		ta := ExclusiveScan(a)
		tb := p.ParallelExclusiveScan(b)
		if ta != tb {
			t.Fatalf("n=%d: totals %d vs %d", n, ta, tb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: mismatch at %d: %d vs %d", n, i, a[i], b[i])
			}
		}
	}
}

func TestSortQueriesSmall(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	qs := keys.Number([]keys.Query{
		keys.Insert(9, 1), keys.Search(2), keys.Insert(9, 2), keys.Delete(2),
	})
	p.SortQueries(qs)
	if !keys.IsSortedByKey(qs) {
		t.Fatalf("not sorted: %v", qs)
	}
}

func TestSortQueriesLargeStable(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	r := rand.New(rand.NewSource(7))
	n := 50000
	qs := make([]keys.Query, n)
	for i := range qs {
		// Few distinct keys → lots of equal-key runs to test stability.
		qs[i] = keys.Query{Key: keys.Key(r.Intn(50)), Op: keys.Op(r.Intn(3)), Value: keys.Value(i)}
	}
	keys.Number(qs)
	p.SortQueries(qs)
	if !keys.IsSortedByKey(qs) {
		t.Fatal("large sort not stable-sorted")
	}
	// Permutation: Idx values must be exactly 0..n-1.
	seen := make([]bool, n)
	for _, q := range qs {
		if seen[q.Idx] {
			t.Fatalf("duplicate Idx %d", q.Idx)
		}
		seen[q.Idx] = true
	}
}

func TestSortQueriesProperty(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	f := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size)%9000 + 4100 // exercise the parallel path
		qs := make([]keys.Query, n)
		for i := range qs {
			qs[i] = keys.Query{Key: keys.Key(r.Intn(100)), Value: keys.Value(r.Uint64())}
		}
		keys.Number(qs)
		ref := make([]keys.Query, n)
		copy(ref, qs)
		keys.SortByKey(ref)
		p.SortQueries(qs)
		for i := range qs {
			if qs[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSortQueriesOddRunCounts is a regression test: merge-round bound
// collapsing used to duplicate the carried-over odd run's boundary,
// looping forever whenever the run count reached exactly 3 (worker
// counts 3, 6, 12, ...).
func TestSortQueriesOddRunCounts(t *testing.T) {
	for _, workers := range []int{3, 5, 6, 7, 12} {
		p := NewPool(workers)
		r := rand.New(rand.NewSource(int64(workers)))
		n := 5000 + workers // force the parallel path
		qs := make([]keys.Query, n)
		for i := range qs {
			qs[i] = keys.Query{Key: keys.Key(r.Intn(997))}
		}
		keys.Number(qs)
		done := make(chan struct{})
		go func() {
			p.SortQueries(qs)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: SortQueries did not terminate", workers)
		}
		if !keys.IsSortedByKey(qs) {
			t.Fatalf("workers=%d: not sorted", workers)
		}
		p.Close()
	}
}

func TestMergeRuns(t *testing.T) {
	a := []keys.Query{{Key: 1, Idx: 0}, {Key: 3, Idx: 1}}
	b := []keys.Query{{Key: 2, Idx: 2}, {Key: 3, Idx: 3}}
	out := make([]keys.Query, 4)
	mergeRuns(out, a, b)
	wantKeys := []keys.Key{1, 2, 3, 3}
	wantIdx := []int32{0, 2, 1, 3}
	for i := range out {
		if out[i].Key != wantKeys[i] || out[i].Idx != wantIdx[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func BenchmarkPoolBarrier(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(tid int) {})
	}
}

func BenchmarkParallelSort1M(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	r := rand.New(rand.NewSource(1))
	base := make([]keys.Query, 1<<20)
	for i := range base {
		base[i] = keys.Query{Key: keys.Key(r.Uint64() % (1 << 22)), Idx: int32(i)}
	}
	qs := make([]keys.Query, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(qs, base)
		p.SortQueries(qs)
	}
}
