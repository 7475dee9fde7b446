package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
	"repro/internal/stats"
)

// streamDifferential drives batches through ProcessStream and checks
// every emitted result against the oracle (applied in emission order,
// which ProcessStream guarantees equals submission order), then the
// final store and tree shape. The originals are carried on the job Tag
// because the transform reorders Qs in place and the oracle needs
// submission order.
func streamDifferential(t *testing.T, cfg EngineConfig, batches [][]keys.Query) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	o := oracle.New()

	in := make(chan *Job)
	go func() {
		for _, b := range batches {
			keys.Number(b)
			in <- &Job{Qs: append([]keys.Query(nil), b...), Tag: b}
		}
		close(in)
	}()

	emitted := 0
	eng.ProcessStream(in, func(j *Job) {
		orig := j.Tag.([]keys.Query)
		want := keys.NewResultSet(len(orig))
		o.ApplyAll(orig, want)
		compareBatch(t, fmt.Sprintf("mode=%v pipeline=%v batch %d", cfg.Mode, cfg.Pipeline, emitted), orig, want, j.RS)
		emitted++
	})
	if emitted != len(batches) {
		t.Fatalf("emitted %d of %d batches", emitted, len(batches))
	}

	eng.Flush()
	if err := eng.Processor().Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatalf("mode=%v pipeline=%v: %v", cfg.Mode, cfg.Pipeline, err)
	}
	gk, gv := eng.Processor().Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("mode=%v pipeline=%v: final sizes %d vs %d", cfg.Mode, cfg.Pipeline, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("mode=%v pipeline=%v: final mismatch at %d: (%d,%d) vs (%d,%d)",
				cfg.Mode, cfg.Pipeline, i, gk[i], gv[i], wk[i], wv[i])
		}
	}
}

// TestPipelineDifferential proves the handoff rule: pipelined streaming
// is byte-identical to serial execution (both are checked against the
// oracle) for every mode, with and without the inter-batch cache.
func TestPipelineDifferential(t *testing.T) {
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		for _, capacity := range []int{0, 64} {
			if capacity > 0 && mode != IntraInter {
				continue
			}
			for _, pipelined := range []bool{false, true} {
				r := rand.New(rand.NewSource(int64(mode)<<8 + int64(capacity) + 7))
				batches := skewedBatches(r, 20, 300, 12, 400, 0.5)
				streamDifferential(t, EngineConfig{
					Mode:          mode,
					Palm:          palm.Config{Order: 8, Workers: 4, LoadBalance: true},
					CacheCapacity: capacity,
					Pipeline:      pipelined,
				}, batches)
			}
		}
	}
}

// TestPipelineCallerResultSets: jobs with caller-supplied ResultSets
// keep their results after the stream completes (no lending).
func TestPipelineCallerResultSets(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:     Intra,
		Palm:     palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		Pipeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const nJobs = 6
	jobs := make([]*Job, nJobs)
	in := make(chan *Job)
	go func() {
		for i := range jobs {
			qs := keys.Number([]keys.Query{
				keys.Insert(keys.Key(i), keys.Value(100+i)),
				keys.Search(keys.Key(i)),
			})
			jobs[i] = &Job{Qs: qs, RS: keys.NewResultSet(len(qs))}
			in <- jobs[i]
		}
		close(in)
	}()
	eng.ProcessStream(in, func(*Job) {})

	for i, j := range jobs {
		if j.RS == nil {
			t.Fatalf("job %d: caller RS was dropped", i)
		}
		res, ok := j.RS.Get(1)
		if !ok || !res.Found || res.Value != keys.Value(100+i) {
			t.Fatalf("job %d: search = %+v, %v; want %d", i, res, ok, 100+i)
		}
	}
}

// batchCounters is a batch's stats.Batch without its timings and
// per-worker leaf-op split: what serial and pipelined execution must
// agree on exactly.
type batchCounters struct {
	BatchSize, RemainingQueries, InferredReturns         int
	CacheHits, CacheMisses, CacheFlushes, CacheEvictions int
	ScanQueries, ScanRows                                int
}

func countersOf(st *stats.Batch) batchCounters {
	return batchCounters{
		st.BatchSize, st.RemainingQueries, st.InferredReturns,
		st.CacheHits, st.CacheMisses, st.CacheFlushes, st.CacheEvictions,
		st.ScanQueries, st.ScanRows,
	}
}

// rmwBatch is mixedPointBatch with read-modify-writes and no scans.
func rmwBatch(r *rand.Rand, size, keySpace int) []keys.Query {
	qs := mixedPointBatch(r, size, keySpace)
	for i := range qs {
		k := qs[i].Key
		switch r.Intn(4) {
		case 0:
			qs[i] = keys.AddDelta(k, keys.Value(1+r.Intn(100)))
		case 1:
			qs[i] = keys.SetIfAbsent(k, keys.Value(r.Intn(1000)))
		}
	}
	return keys.Number(qs)
}

// parityTwins builds twin engines of one mode — the second pipelined —
// and a seeded batch list for them: point-only, RMW-only and scan+RMW
// batches, each below and above inlineBatch.
func parityTwins(t *testing.T, mode Mode) (serial, piped *Engine, batches [][]keys.Query) {
	t.Helper()
	cfg := EngineConfig{
		Mode:          mode,
		Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		CacheCapacity: 128,
	}
	serial, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serial.Close)
	cfg.Pipeline = true
	piped, err = NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(piped.Close)

	r := rand.New(rand.NewSource(int64(mode) + 41))
	for round := 0; round < 3; round++ {
		for _, n := range []int{5, inlineBatch - 1, 1500} {
			// Two point batches in a row: the second hits what the
			// first admitted (scan/RMW batches drain the cache).
			batches = append(batches, mixedPointBatch(r, n, 300), mixedPointBatch(r, n, 300),
				rmwBatch(r, n, 300), mixedBatch(r, n, 300))
		}
	}
	return serial, piped, batches
}

// streamBatches runs copies of batches through a pipelined
// ProcessStream, calling emit with each batch's position.
func streamBatches(t *testing.T, eng *Engine, batches [][]keys.Query, emit func(i int, j *Job)) {
	t.Helper()
	in := make(chan *Job)
	go func() {
		for i, b := range batches {
			in <- &Job{Qs: append([]keys.Query(nil), b...), Tag: i}
		}
		close(in)
	}()
	emitted := 0
	eng.ProcessStream(in, func(j *Job) {
		emit(j.Tag.(int), j)
		emitted++
	})
	if emitted != len(batches) {
		t.Fatalf("emitted %d of %d batches", emitted, len(batches))
	}
}

// TestSerialPipelinedParity runs twin engines over the same batches,
// one through ProcessBatch and one through a pipelined ProcessStream,
// and demands identical results and identical per-batch counters for
// every batch, then identical stores after Flush.
func TestSerialPipelinedParity(t *testing.T) {
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			serial, piped, batches := parityTwins(t, mode)
			want := make([]*keys.ResultSet, len(batches))
			wantSt := make([]batchCounters, len(batches))
			for i, b := range batches {
				want[i] = keys.NewResultSet(len(b))
				serial.ProcessBatch(append([]keys.Query(nil), b...), want[i])
				wantSt[i] = countersOf(serial.Stats())
			}
			streamBatches(t, piped, batches, func(i int, j *Job) {
				tag := fmt.Sprintf("batch %d (%d queries)", i, len(batches[i]))
				compareBatch(t, tag, batches[i], want[i], j.RS)
				if got := countersOf(piped.Stats()); got != wantSt[i] {
					t.Fatalf("%s: pipelined counters %+v, serial %+v", tag, got, wantSt[i])
				}
			})
			if mode == IntraInter {
				hits := 0
				for _, c := range wantSt {
					hits += c.CacheHits
				}
				if hits == 0 {
					t.Fatal("the cache served no hits: the cache pass went untested")
				}
			}

			serial.Flush()
			piped.Flush()
			sk, sv := serial.Processor().Tree().Dump()
			pk, pv := piped.Processor().Tree().Dump()
			if !slices.Equal(sk, pk) || !slices.Equal(sv, pv) {
				t.Fatalf("stores differ after Flush: serial %d keys, pipelined %d", len(sk), len(pk))
			}
		})
	}
}

// TestPipelineEmptyAndTinyBatches: zero-length and single-query batches
// flow through both stages without upsetting the slot recycling.
func TestPipelineEmptyAndTinyBatches(t *testing.T) {
	for _, mode := range []Mode{Original, IntraInter} {
		batches := [][]keys.Query{
			{},
			{keys.Insert(1, 10)},
			{},
			{keys.Search(1)},
			{keys.Delete(1)},
			{keys.Search(1)},
		}
		streamDifferential(t, EngineConfig{
			Mode:          mode,
			Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
			CacheCapacity: 4,
			Pipeline:      true,
		}, batches)
	}
}

// TestPipelineStreamSerialFallback: ProcessStream without the Pipeline
// flag must also match the oracle (it routes through ProcessBatch).
func TestPipelineStreamSerialFallback(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	batches := skewedBatches(r, 8, 500, 10, 200, 0.4)
	streamDifferential(t, EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		CacheCapacity: 16,
	}, batches)
}

// TestPipelineInterleavedWithProcessBatch: a stream can be followed by
// direct ProcessBatch calls and another stream on the same engine.
func TestPipelineInterleavedWithProcessBatch(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:     Intra,
		Palm:     palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		Pipeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	runStream := func(lo, hi int) {
		in := make(chan *Job)
		go func() {
			for k := lo; k < hi; k++ {
				in <- &Job{Qs: keys.Number([]keys.Query{keys.Insert(keys.Key(k), keys.Value(k))})}
			}
			close(in)
		}()
		eng.ProcessStream(in, func(*Job) {})
	}

	runStream(0, 50)
	b := keys.Number([]keys.Query{keys.Insert(100, 100)})
	eng.ProcessBatch(b, keys.NewResultSet(len(b)))
	runStream(50, 100)

	if n := eng.Processor().Tree().Len(); n != 101 {
		t.Fatalf("tree Len = %d, want 101", n)
	}
}
