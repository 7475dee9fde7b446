package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
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
	for _, mode := range []Mode{Original, Intra, IntraInter, SimIntra} {
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

// TestPipelineCompareSortDifferential covers the comparison-sort
// ablation path under pipelining (it exercises the transform pool's
// merge sort in stage A).
func TestPipelineCompareSortDifferential(t *testing.T) {
	for _, mode := range []Mode{Original, IntraInter} {
		r := rand.New(rand.NewSource(int64(mode) + 31))
		batches := skewedBatches(r, 10, 400, 10, 300, 0.5)
		streamDifferential(t, EngineConfig{
			Mode:          mode,
			Palm:          palm.Config{Order: 8, Workers: 3, LoadBalance: true},
			CacheCapacity: 32,
			CompareSort:   true,
			Pipeline:      true,
		}, batches)
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
