package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
	"repro/internal/workload"
)

// FuzzCachePassEquivalence is the cache pass's differential fuzzer:
// fuzz bytes decode into 2–6 point-only batches over a small key space,
// run through IntraInter engines with cache capacities 1, 3 and 16 at
// 1, 2 and 4 workers, and through one pipelined stream. Every batch's
// results must match the oracle, and so must the final store after
// Flush. For each capacity, every worker count must also report the
// same per-batch counters (cache hits, misses, evictions and flushes
// among them) and leave the same dirty state for FlushAll: phase 1 of
// the pass runs on the workers, so none of that may depend on how the
// batch was split.
func FuzzCachePassEquivalence(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 0, 1, 0, 2, 1, 2, 0, 1, 4, 0, 3, 0, 1})
	f.Add([]byte{5, 1, 0, 1, 1, 0, 2, 1, 3, 1, 1, 0, 1, 2, 1, 0, 3, 0, 0, 2, 2})
	f.Add([]byte("evict-then-search-in-one-pass, admit past capacity"))

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := decodeCacheBatches(data)
		if batches == nil {
			return
		}
		want := make([]*keys.ResultSet, len(batches))
		o := oracle.New()
		for i, b := range batches {
			want[i] = keys.NewResultSet(len(b))
			o.ApplyAll(b, want[i])
		}
		wk, wv := o.Dump()

		for _, capacity := range []int{1, 3, 16} {
			var refCounts []batchCounters
			var refDirty []keys.Query
			for _, workers := range []int{1, 2, 4} {
				cfg := EngineConfig{Mode: IntraInter, CacheCapacity: capacity}
				cfg.Palm.Workers = workers
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tag := "cap " + itoa(capacity) + " workers " + itoa(workers)
				var counts []batchCounters
				for i, b := range batches {
					got := keys.NewResultSet(len(b))
					eng.ProcessBatch(append([]keys.Query(nil), b...), got)
					compareBatch(t, tag+" batch "+itoa(i), b, want[i], got)
					counts = append(counts, countersOf(eng.Stats()))
				}
				dirty := eng.topK.FlushAll()
				keys.SortByKey(dirty)
				eng.writeBack(slices.Clone(dirty))
				gk, gv := eng.Processor().Tree().Dump()
				eng.Close()
				if !slices.Equal(gk, wk) || !slices.Equal(gv, wv) {
					t.Fatalf("%s: final store %v %v, want %v %v", tag, gk, gv, wk, wv)
				}

				if refCounts == nil {
					refCounts, refDirty = counts, dirty
					continue
				}
				for i := range refCounts {
					if counts[i] != refCounts[i] {
						t.Fatalf("%s batch %d: counters %+v, workers 1 %+v", tag, i, counts[i], refCounts[i])
					}
				}
				if !slices.Equal(dirty, refDirty) {
					t.Fatalf("%s: FlushAll %v, workers 1 %v", tag, dirty, refDirty)
				}
			}
		}

		// One pipelined arm: the stream runs the same pass in stage B.
		cfg := EngineConfig{Mode: IntraInter, CacheCapacity: 3, Pipeline: true}
		cfg.Palm.Workers = 2
		streamDifferential(t, cfg, batches)
	})
}

// decodeCacheBatches turns fuzz bytes into 2–6 numbered point-only
// batches over 12 keys: the first byte picks the batch count, then two
// bytes per query (op and batch-break selector, key). Returns nil when
// the bytes hold too few queries.
func decodeCacheBatches(data []byte) [][]keys.Query {
	if len(data) < 5 {
		return nil
	}
	n := 2 + int(data[0])%5
	var batches [][]keys.Query
	var cur []keys.Query
	for i := 1; i+1 < len(data); i += 2 {
		op, k := data[i], keys.Key(data[i+1]%12)
		switch op % 3 {
		case 0:
			cur = append(cur, keys.Search(k))
		case 1:
			cur = append(cur, keys.Insert(k, keys.Value(op)<<8|keys.Value(i)))
		default:
			cur = append(cur, keys.Delete(k))
		}
		if op&0x80 != 0 && len(batches) < n-1 {
			batches = append(batches, keys.Number(cur))
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, keys.Number(cur))
	}
	if len(batches) < 2 {
		// Too few break bytes: split the queries evenly instead.
		var all []keys.Query
		for _, b := range batches {
			all = append(all, b...)
		}
		if len(all) < n {
			return nil
		}
		batches = batches[:0]
		for j := 0; j < n; j++ {
			batches = append(batches, keys.Number(append([]keys.Query(nil), all[j*len(all)/n:(j+1)*len(all)/n]...)))
		}
	}
	return batches
}

// BenchmarkCachePass times the top-K cache pass at the benchmark
// spine's sizes — K = 65 536, batch 16 384, 2 workers — on the
// uniform-read-batch and skew-batch shapes, split into phase 1
// (probe), phase 2 (admit) and the flush merge, in ns per submitted
// query. Each iteration runs one whole batch by hand, as apply does for
// a point batch, with the pass's phases timed apart.
//
//	go test -run '^$' -bench CachePass ./internal/core
func BenchmarkCachePass(b *testing.B) {
	for _, sh := range []struct {
		name     string
		keyRange uint64
		prefill  int
		gen      workload.Generator
		updates  float64
	}{
		{"uniform", 4 << 20, 512 << 10, workload.NewUniform(4 << 20), 0.05},
		{"skew", 2 << 20, 1 << 20, workload.NewZipfian(2<<20, 1.0), 0.25},
	} {
		b.Run(sh.name, func(b *testing.B) {
			eng, err := NewEngine(EngineConfig{
				Mode:          IntraInter,
				Palm:          palm.Config{Workers: 2, LoadBalance: true},
				CacheCapacity: 1 << 16,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			r := rand.New(rand.NewSource(42))
			uniform := workload.NewUniform(sh.keyRange)
			for left := sh.prefill; left > 0; left -= 1 << 16 {
				fill := workload.Prefill(uniform, r, 1<<16)
				eng.ProcessBatch(fill, keys.NewResultSet(len(fill)))
			}
			qs := make([]keys.Query, 16384)
			rs := keys.NewResultSet(len(qs))
			next := func() {
				workload.FillBatchMixed(sh.gen, r, qs, workload.MixedConfig{UpdateRatio: sh.updates})
				rs.Reset(len(qs))
			}
			for i := 0; i < 32; i++ {
				next()
				eng.ProcessBatch(qs, rs)
			}

			p, st := &eng.serial, eng.Stats()
			var probe, admit, merge time.Duration
			hits, misses := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
				st.Reset()
				st.BatchSize = len(qs)
				eng.transform(p, qs, rs)
				t0 := time.Now()
				out := eng.probeCache(p.remaining, rs, &p.tf.Router, st)
				t1 := time.Now()
				eng.admitCache(st)
				t2 := time.Now()
				out = eng.mergeFlushes(out)
				t3 := time.Now()
				eng.proc.ProcessTransformed(out, rs)
				p.tf.Broadcast(rs)
				probe += t1.Sub(t0)
				admit += t2.Sub(t1)
				merge += t3.Sub(t2)
				hits += st.CacheHits
				misses += st.CacheMisses
			}
			perQuery := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*len(qs)) }
			b.ReportMetric(perQuery(probe), "probe-ns/query")
			b.ReportMetric(perQuery(admit), "admit-ns/query")
			b.ReportMetric(perQuery(merge), "merge-ns/query")
			b.ReportMetric(perQuery(probe+admit+merge), "pass-ns/query")
			b.ReportMetric(float64(hits)/float64(max(hits+misses, 1)), "hit-rate")
		})
	}
}
