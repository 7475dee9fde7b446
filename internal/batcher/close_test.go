package batcher

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/keys"
)

// TestCloseLeaksNoGoroutines opens and closes many batchers — with
// queries still pending or in flight — and checks the process goroutine
// count returns to baseline (every dispatcher released).
func TestCloseLeaksNoGoroutines(t *testing.T) {
	eng := newEngine(t)
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		b := New(eng, Config{MaxBatch: 1000})
		// A batch far below the cap, possibly still in flight at Close.
		f, err := b.Submit(keys.Insert(keys.Key(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		b.Close()
		if _, ok := <-f.Done(); ok {
			t.Fatal("future channel yielded a value")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d -> %d", base, runtime.NumGoroutine())
}

// TestCloseWhileSubmitting hammers Submit from many goroutines racing a
// Close: every future that Submit returned must complete (its batch was
// dispatched, not dropped), and Submits that lose the race must fail
// with ErrClosed — never hang, never panic on the closed dispatch
// channel.
func TestCloseWhileSubmitting(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := New(newEngine(t), Config{MaxBatch: 4})
		const workers = 8
		var wg sync.WaitGroup
		// Per-worker slices, merged after the race: Submit no longer
		// blocks behind the dispatcher, so the number of futures won in
		// the race window is unbounded — a fixed-capacity channel here
		// would throttle the submitters and mask the behavior under test.
		perWorker := make([][]*Future, workers)
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					f, err := b.Submit(keys.Insert(keys.Key(w*1000+i), keys.Value(i)))
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Submit: %v", err)
						}
						return
					}
					perWorker[w] = append(perWorker[w], f)
				}
			}(w)
		}
		close(start)
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		b.Close()
		wg.Wait()
		done := make(chan struct{})
		go func() {
			for _, futs := range perWorker {
				for _, f := range futs {
					f.Get()
				}
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a returned future never completed after Close")
		}
	}
}

// TestConcurrentClose verifies double and concurrent Close are safe and
// all of them return only after the dispatcher has drained.
func TestConcurrentClose(t *testing.T) {
	b := New(newEngine(t), Config{MaxBatch: 8})
	var futs []*Future
	for i := 0; i < 20; i++ {
		f, err := b.Submit(keys.Insert(keys.Key(i), keys.Value(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Close()
		}()
	}
	wg.Wait()
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("future %d incomplete after Close returned", i)
		}
	}
	if _, err := b.Submit(keys.Search(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	b.Close() // idempotent
}
