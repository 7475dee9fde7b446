// Online serving (§VI-D): the batch engine behind a per-query,
// latency-bounded service interface. Concurrent clients issue
// individual gets/puts; the service batches them transparently, so the
// deployment gets batch-level QTrans elimination with single-query
// ergonomics and a bounded queueing delay.
//
// Run with: go run ./examples/onlinesvc [-clients 8] [-ops 5000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
	"repro/qtrans"
)

func main() {
	var (
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		ops      = flag.Int("ops", 5000, "operations per client")
		maxBatch = flag.Int("maxbatch", 4096, "batching size cap")
	)
	flag.Parse()

	db, err := qtrans.Open(qtrans.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Preload a store and warm the cache with its hottest keys.
	gen := workload.NewZipfian(1<<18, 0.99)
	r := rand.New(rand.NewSource(1))
	seed := qtrans.NewBatch()
	for i := 0; i < 100_000; i++ {
		k := qtrans.Key(gen.Key(r))
		seed.Insert(k, qtrans.Value(k))
	}
	db.Run(seed)
	hot := make([]qtrans.Key, 1000)
	for i := range hot {
		hot[i] = qtrans.Key(i) // zipfian rank order: low keys are hottest
	}
	db.Warm(hot)

	svc := db.Serve(qtrans.ServiceOptions{MaxBatch: *maxBatch})
	defer svc.Close()

	var (
		wg       sync.WaitGroup
		served   int64
		misses   int64
		totalLat int64 // nanoseconds
	)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c) + 100))
			for i := 0; i < *ops; i++ {
				k := qtrans.Key(gen.Key(r))
				opStart := time.Now()
				if r.Intn(4) == 0 {
					if err := svc.Put(k, qtrans.Value(i)); err != nil {
						log.Fatal(err)
					}
				} else {
					_, found, err := svc.Get(k)
					if err != nil {
						log.Fatal(err)
					}
					if !found {
						atomic.AddInt64(&misses, 1)
					}
				}
				atomic.AddInt64(&totalLat, int64(time.Since(opStart)))
				atomic.AddInt64(&served, 1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("served %d ops from %d clients in %v\n", served, *clients, elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput:   %.0f ops/s\n", float64(served)/elapsed.Seconds())
	fmt.Printf("  mean latency: %v\n", (time.Duration(totalLat) / time.Duration(served)).Round(time.Microsecond))
	fmt.Printf("  not-found:    %.1f%%\n", 100*float64(misses)/float64(served))
}
