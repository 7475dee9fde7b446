package batcher

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/palm"
)

func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          core.IntraInter,
		Palm:          palm.Config{Order: 16, Workers: 2, LoadBalance: true},
		CacheCapacity: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestSubmitAndGet(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 100})
	defer b.Close()

	if _, err := b.Submit(keys.Insert(1, 11)); err != nil {
		t.Fatal(err)
	}
	f, err := b.Submit(keys.Search(1))
	if err != nil {
		t.Fatal(err)
	}
	res, ok := f.Get()
	if !ok || !res.Found || res.Value != 11 {
		t.Fatalf("Get = %+v, %v; want 11", res, ok)
	}
}

// TestDeadlineTriggeredFlush: there is no deadline timer any more, and
// none is needed — on an idle batcher a single query far below the cap
// is its own batch, dispatched with no flush and no Close.
func TestDeadlineTriggeredFlush(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 1 << 20})
	defer b.Close()

	f, err := b.Submit(keys.Search(42))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a lone query was not dispatched by the idle batcher")
	}
	if res, ok := f.Get(); !ok || res.Found {
		t.Fatalf("Get = %+v, %v; want recorded not-found", res, ok)
	}
}

// TestExplicitFlush: there is no Flush any more, and none is needed — a
// lone mutation is applied on its own, and once the dispatcher has
// parked again the next query wakes it and sees the write.
func TestExplicitFlush(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 1 << 20})
	defer b.Close()

	for i, q := range []keys.Query{keys.Insert(5, 50), keys.Search(5)} {
		f, err := b.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-f.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("query %d was not dispatched by the idle batcher", i)
		}
		if i == 1 {
			if res, ok := f.Get(); !ok || !res.Found || res.Value != 50 {
				t.Fatalf("Get = %+v, %v; want 50", res, ok)
			}
		}
	}
	if batches, queries := b.Stats(); batches != 2 || queries != 2 {
		t.Fatalf("stats = %d batches, %d queries; want one batch per query", batches, queries)
	}
}

func TestMutationFutureHasNoResult(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 1})
	defer b.Close()
	f, err := b.Submit(keys.Insert(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get(); ok {
		t.Fatal("insert future carried a result")
	}
}

func TestCloseFlushesAndRejects(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 1 << 20})
	f, err := b.Submit(keys.Insert(5, 50))
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case <-f.Done():
	default:
		t.Fatal("Close must flush pending queries")
	}
	if _, err := b.Submit(keys.Search(5)); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestBatchSemanticsAcrossSubmitters(t *testing.T) {
	// Many goroutines submit interleaved ops on disjoint keys; every
	// search must observe its own goroutine's prior writes (futures
	// resolve in submission order per key because batches preserve
	// serial semantics).
	for _, pipeline := range []bool{false, true} {
		b := New(newEngine(t), Config{MaxBatch: 64, Pipeline: pipeline})

		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := keys.Key(w * 1000)
				for i := 0; i < 50; i++ {
					k := base + keys.Key(i)
					if _, err := b.Submit(keys.Insert(k, keys.Value(i))); err != nil {
						errs <- err.Error()
						return
					}
					f, err := b.Submit(keys.Search(k))
					if err != nil {
						errs <- err.Error()
						return
					}
					res, ok := f.Get()
					if !ok || !res.Found || res.Value != keys.Value(i) {
						errs <- "stale read"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.Close()
		select {
		case e := <-errs:
			t.Fatalf("pipeline=%v: %s", pipeline, e)
		default:
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	b := New(newEngine(t), Config{})
	defer b.Close()
	if b.cfg.MaxBatch != 4096 || b.cfg.MinBatch != 64 || b.cfg.MaxBatchLimit != 1<<20 {
		t.Fatalf("defaults = %+v", b.cfg)
	}
}
