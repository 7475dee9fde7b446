package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/keys"
	"repro/internal/palm"
	"repro/internal/workload"
)

// TestSmallBatchRunsInline pins the scheduling rule with the pool's
// exact dispatch counter: a point batch and a scan/RMW batch below
// inlineBatch hand no superstep to the workers, a large batch does, and
// calls outside processBatch (here Flush) still dispatch afterwards.
// A 4096-query batch sorts on the caller (below the radix sort's
// partitioned size), so it dispatches PALM's two supersteps in org
// mode, and in inter mode those plus the QSAT pass and the cache probe.
func TestSmallBatchRunsInline(t *testing.T) {
	large := map[Mode]uint64{Original: 2, IntraInter: 4}
	for _, mode := range []Mode{Original, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{
				Mode:          mode,
				Palm:          palm.Config{Workers: 2, LoadBalance: true},
				CacheCapacity: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			r := rand.New(rand.NewSource(5))
			run := func(qs []keys.Query) uint64 {
				before := eng.Pool().Dispatched()
				eng.ProcessBatch(qs, keys.NewResultSet(len(qs)))
				return eng.Pool().Dispatched() - before
			}

			if d := run(mixedPointBatch(r, 4096, 1<<14)); d != large[mode] {
				t.Errorf("4096-query batch dispatched %d supersteps, want %d", d, large[mode])
			}
			if d := run(mixedBatch(r, inlineBatch-1, 1<<14)); d != 0 {
				t.Errorf("scan/RMW batch of %d dispatched %d supersteps, want 0", inlineBatch-1, d)
			}
			if d := run(mixedPointBatch(r, inlineBatch-1, 1<<14)); d != 0 {
				t.Errorf("point batch of %d dispatched %d supersteps, want 0", inlineBatch-1, d)
			}
			if mode == IntraInter {
				// The point batch left dirty entries in the cache;
				// writing them back runs on the workers again.
				before := eng.Pool().Dispatched()
				eng.Flush()
				if eng.Pool().Dispatched() == before {
					t.Error("Flush after a small batch ran inline; want the pool's workers")
				}
			}
		})
	}
}

// TestEngineSmallBatchDifferential runs one seeded stream cut into
// batches on both sides of inlineBatch, in every mode, against the
// oracle: inline and worker scheduling must give the same results and
// the same final store. Every other batch carries scans and RMWs.
func TestEngineSmallBatchDifferential(t *testing.T) {
	sizes := []int{1, 2, 7, inlineBatch - 1, inlineBatch, inlineBatch + 1, 2048}
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(31))
			var batches [][]keys.Query
			for round := 0; round < 2; round++ {
				for i, n := range sizes {
					if (i+round)%2 == 0 {
						batches = append(batches, mixedBatch(r, n, 512))
					} else {
						batches = append(batches, mixedPointBatch(r, n, 512))
					}
				}
			}
			cfg := EngineConfig{Mode: mode, CacheCapacity: 64}
			cfg.Palm.Workers = 2
			scanRMWDifferential(t, cfg, batches)
		})
	}
}

// TestCachePassFlushMapEmptied checks that the cache pass carries no
// flush state from one batch to the next — its flush buffer holds
// exactly the batch's own flushes, even after a prefill that evicts well
// over 10 000 dirty entries — and that the same-pass "evicted, then
// searched" case needs no flush map: every probe precedes every
// eviction, so the search is answered from the still-resident entry.
func TestCachePassFlushMapEmptied(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Workers: 2, LoadBalance: true},
		CacheCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	run := func(qs []keys.Query) *keys.ResultSet {
		t.Helper()
		rs := keys.NewResultSet(len(qs))
		eng.ProcessBatch(keys.Number(qs), rs)
		if n, want := len(eng.flushQ), eng.Stats().CacheFlushes; n != want {
			t.Fatalf("flush buffer holds %d queries after a batch with %d flushes", n, want)
		}
		return rs
	}

	// With one cache slot every distinct insert but the pass's last
	// evicts a dirty entry.
	flushes := 0
	for b := 0; b < 3; b++ {
		qs := make([]keys.Query, 5000)
		for i := range qs {
			qs[i] = keys.Insert(keys.Key(1000+b*5000+i), keys.Value(i))
		}
		run(qs)
		flushes += eng.Stats().CacheFlushes
	}
	if flushes < 10_000 {
		t.Fatalf("prefill flushed %d dirty entries, want >= 10000", flushes)
	}

	// Key 0's insert evicts key 1's dirty entry ahead of key 1's search
	// in the same pass (keys run in order): the search must see 11.
	run([]keys.Query{keys.Insert(1, 11)})
	rs := run([]keys.Query{keys.Insert(0, 22), keys.Search(1)})
	if res, ok := rs.Get(1); !ok || !res.Found || res.Value != 11 {
		t.Fatalf("search after same-pass eviction: %+v, %v; want 11", res, ok)
	}
}

// BenchmarkProcessBatchSize sweeps the batch size from 1 to 16 384 in
// the org and Full (inter) modes, each size under both schedulings:
// "workers" hands every superstep to the pool, "inline" runs it on the
// caller. inlineBatch sits below where the two cross. The prefill grows
// the cache pass's flush map the way ./benchmark's prefill does, with
// 65 536-query insert batches into a 65 536-entry cache; the timed
// batches are zipfian 0.99 over the same 1M keys with 25 % puts, like
// served-open.
//
//	go test -run=XXX -bench=BenchmarkProcessBatchSize ./internal/core
func BenchmarkProcessBatchSize(b *testing.B) {
	const keyRange = 1 << 20
	sizes := []int{1, 4, 16, 64, 256, 512, 1024, 2048, 4096, 16384}
	// Timed batches are cut in turn from one long stream, so cold puts
	// keep missing the cache and evicting dirty entries as in served-open;
	// replaying a few batches would soon make every key resident.
	gen, r := workload.NewZipfian(keyRange, 0.99), rand.New(rand.NewSource(42))
	stream := make([]keys.Query, 1<<19)
	for i := range stream {
		if k := gen.Key(r); r.Intn(4) == 0 {
			stream[i] = keys.Insert(k, keys.Value(i))
		} else {
			stream[i] = keys.Search(k)
		}
	}
	next := 0
	for _, mode := range []Mode{Original, IntraInter} {
		eng, err := NewEngine(EngineConfig{
			Mode:          mode,
			Palm:          palm.Config{LoadBalance: true},
			CacheCapacity: 1 << 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		for done := 0; done < keyRange; done += 1 << 16 {
			qs := make([]keys.Query, 1<<16)
			for i := range qs {
				qs[i] = keys.Insert(keys.Key(r.Intn(keyRange)), keys.Value(i))
			}
			eng.ProcessBatch(keys.Number(qs), keys.NewResultSet(len(qs)))
		}

		for _, size := range sizes {
			qs := make([]keys.Query, size)
			rs := keys.NewResultSet(size)
			for _, inline := range []bool{false, true} {
				sched := "workers"
				if inline {
					sched = "inline"
				}
				b.Run(fmt.Sprintf("%v/size=%d/%s", mode, size, sched), func(b *testing.B) {
					eng.Pool().SetInline(inline)
					defer eng.Pool().SetInline(false)
					for i := 0; i < b.N; i++ {
						if next+size > len(stream) {
							next = 0
						}
						keys.Number(append(qs[:0], stream[next:next+size]...))
						next += size
						rs.Reset(size)
						eng.transform(&eng.serial, qs, rs)
						eng.apply(&eng.serial, rs)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/query")
				})
			}
		}
		eng.Close()
	}
}
