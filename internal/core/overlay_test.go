package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// everyEngine runs the batches, serial and pipelined, through every
// engine mode (with and without the top-K cache for IntraInter).
func everyEngine(t *testing.T, batches func() [][]keys.Query) {
	t.Helper()
	for _, cfg := range []EngineConfig{
		{Mode: Original}, {Mode: Intra}, {Mode: IntraInter, CacheCapacity: 4},
	} {
		cfg.Palm.Workers = 2
		cfg.Palm.Order = 4 // scans cross leaves even in tiny key spaces
		scanRMWDifferential(t, cfg, batches())
		cfg.Pipeline = true
		streamDifferential(t, cfg, batches())
	}
}

// TestOverlayHardCases pins, against the oracle, each situation the
// define overlay has to get right. Every case prefills keys 0,10,..,90
// (value = key+1) in a first batch.
func TestOverlayHardCases(t *testing.T) {
	const top = ^keys.Key(0)
	cases := []struct {
		name  string
		batch []keys.Query
	}{
		{"delete-then-limited-scan", []keys.Query{
			// The scan must reach past the two deleted rows: limit + D.
			keys.Delete(0), keys.Delete(10), keys.Delete(10), keys.Scan(0, 100, 2),
		}},
		{"delete-all-fetched-rows", []keys.Query{
			keys.Delete(0), keys.Delete(10), keys.Delete(20), keys.Scan(0, 100, 3), keys.Scan(0, 25, 1),
		}},
		{"insert-beyond-truncated-fetch", []keys.Query{
			// 95 and 15 lie beyond / inside the two fetched rows.
			keys.Insert(95, 1), keys.AddDelta(45, 7), keys.Insert(15, 2), keys.Scan(0, 100, 2), keys.Scan(0, 100, 3),
		}},
		{"rmw-chains", []keys.Query{
			keys.AddDelta(5, 3), keys.AddDelta(5, 4), // absent reads as 0
			keys.Delete(10), keys.SetIfAbsent(10, 77), keys.SetIfAbsent(10, 88),
			keys.SetIfAbsent(20, 99), keys.AddDelta(20, 1), // present: set is a no-op
			keys.Delete(30), keys.AddDelta(30, 5), keys.Delete(30),
			keys.Scan(0, 40, 0), keys.Search(5), keys.AddDelta(5, 1), keys.Scan(0, 40, 3),
		}},
		{"write-after-scan-hidden", []keys.Query{
			keys.Scan(0, 100, 0), keys.Insert(5, 1), keys.Delete(10), keys.AddDelta(20, 9),
			keys.Scan(0, 100, 0), keys.Insert(5, 2), keys.Scan(0, 100, 4), keys.Delete(5),
		}},
		{"overlapping-nested-empty-wrapped", []keys.Query{
			keys.Insert(25, 1), keys.Scan(0, 50, 0), keys.Delete(30), keys.Scan(20, 80, 0),
			keys.Scan(25, 35, 1), keys.Scan(30, 30, 0), keys.Scan(60, 20, 0), // empty, hi < lo
			keys.Insert(top-1, 5), keys.Scan(90, top, 0), keys.Scan(top-3, top, 1), keys.Scan(top, 3, 0),
			keys.Delete(90), keys.Scan(0, top, 0), keys.Scan(85, top, 1),
		}},
		{"covered-scan-and-cover-both-patched", []keys.Query{
			keys.Delete(20), keys.Scan(10, 40, 0), // covered later by [0,100), own overlay: D(20)
			keys.Insert(25, 1), keys.Scan(0, 100, 0), // the cover, overlay: D(20) I(25)
			keys.Delete(30), keys.Scan(10, 40, 2), // covered, limited, D = 2
			keys.AddDelta(10, 5), keys.Scan(10, 40, 0), keys.Scan(0, 100, 0),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			everyEngine(t, func() [][]keys.Query {
				var fill []keys.Query
				for k := keys.Key(0); k < 100; k += 10 {
					fill = append(fill, keys.Insert(k, keys.Value(k+1)))
				}
				batch := append([]keys.Query(nil), c.batch...)
				// Twice: the second run starts from the first's writes.
				again := append([]keys.Query(nil), c.batch...)
				return [][]keys.Query{keys.Number(fill), keys.Number(batch), keys.Number(again)}
			})
		})
	}
}

// TestOverlayProperty is the overlay's differential property: random
// scan-heavy batches over tiny key spaces — where nearly every scan has
// preceding and following defines on its keys, limits bite, and ranges
// nest, repeat, wrap and come up empty — must match the serial oracle
// under every engine, serial and pipelined.
func TestOverlayProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		everyEngine(t, func() [][]keys.Query {
			r := rand.New(rand.NewSource(seed))
			space := 6 + r.Intn(20)
			batches := make([][]keys.Query, 40)
			for b := range batches {
				qs := make([]keys.Query, 1+r.Intn(24))
				for i := range qs {
					k := keys.Key(r.Intn(space))
					switch r.Intn(10) {
					case 0, 1, 2:
						lo := keys.Key(r.Intn(space + 2))
						hi := lo + keys.Key(r.Intn(space)) - 2 // may wrap below lo or to the top
						qs[i] = keys.Scan(lo, hi, keys.Value(r.Intn(5)))
					case 3, 4:
						qs[i] = keys.Insert(k, keys.Value(r.Intn(1000)))
					case 5, 6:
						qs[i] = keys.Delete(k)
					case 7:
						qs[i] = keys.AddDelta(k, keys.Value(1+r.Intn(9)))
					case 8:
						qs[i] = keys.SetIfAbsent(k, keys.Value(r.Intn(1000)))
					default:
						qs[i] = keys.Search(k)
					}
				}
				batches[b] = keys.Number(qs)
			}
			return batches
		})
	}
}

// scanRig is a processor over a small order-4 tree — scans cross
// leaves and start in the middle of one — and the pairs it holds.
type scanRig struct {
	proc *palm.Processor
	fill []keys.Query
	ov   scanOverlay
	rs   *keys.ResultSet
}

// newScanRig builds the rig's tree from fill on pool.
func newScanRig(t *testing.T, pool *bsp.Pool, fill []keys.Query) *scanRig {
	t.Helper()
	proc, err := palm.New(palm.Config{Order: 4, Workers: pool.N()}, pool)
	if err != nil {
		t.Fatal(err)
	}
	fill = keys.Number(fill)
	rs := keys.NewResultSet(len(fill))
	proc.ProcessBatch(slices.Clone(fill), rs)
	return &scanRig{proc: proc, fill: fill, rs: keys.NewResultSet(0)}
}

// walkedRows answers a batch's scans the way the engine does — split
// the scans from the points, sort the points, one EvalScans pass over
// the pre-batch tree — and checks every scan's rows, and the returned
// row count, against the oracle running the batch serially after the
// rig's fill. The tree is only read.
func walkedRows(t *testing.T, rig *scanRig, batch []keys.Query) {
	t.Helper()
	batch = keys.Number(batch)
	o := oracle.New()
	o.ApplyAll(rig.fill, nil)
	want := keys.NewResultSet(len(batch))
	o.ApplyAll(batch, want)

	pts := rig.ov.build(batch)
	keys.SortByKey(pts) // stable over batch order: (Key, Idx)
	rig.rs.Reset(len(batch))
	rows := rig.proc.EvalScans(rig.ov.scans, pts, rig.rs)
	n := 0
	for _, s := range rig.ov.scans {
		got, ok := rig.rs.ScanRows(s.Idx)
		exp, _ := want.ScanRows(s.Idx)
		if !ok || !slices.Equal(got, exp) {
			t.Fatalf("scan %d [%d,%d) limit %d: rows %v (%v), want %v",
				s.Idx, s.Key, s.Key2, s.Value, got, ok, exp)
		}
		n += len(got)
	}
	if rows != n {
		t.Fatalf("EvalScans counted %d rows, the scans hold %d", rows, n)
	}
}

// TestOverlayDefsFromSortedPoints pins how the scan walk takes a
// batch's defines off its sorted point queries, against the oracle
// over a tree holding every third key below 102 and top-2: a define on
// a scan's lo is inside, one on its hi is outside, empty ranges take
// nothing, every define kind counts while searches never do, and
// defines on keys the tree lacks become rows of their own.
func TestOverlayDefsFromSortedPoints(t *testing.T) {
	const top = ^keys.Key(0)
	cases := []struct {
		name  string
		batch []keys.Query
	}{
		{"touching", []keys.Query{
			keys.Scan(10, 20, 0), keys.Scan(20, 30, 0),
			keys.Insert(19, 1), keys.Insert(20, 2), keys.Insert(30, 3), keys.Delete(9), keys.Insert(10, 4),
		}},
		{"overlapping", []keys.Query{
			keys.Insert(15, 1), keys.Scan(10, 25, 0), keys.Delete(22), keys.Scan(20, 40, 1),
			keys.AddDelta(39, 2), keys.Insert(40, 3),
		}},
		{"nested", []keys.Query{
			keys.Scan(0, 100, 0), keys.Scan(10, 20, 2),
			keys.Insert(5, 1), keys.Delete(15), keys.Insert(99, 2), keys.Insert(100, 3),
		}},
		{"empty-ranges", []keys.Query{
			keys.Scan(50, 50, 0), keys.Scan(60, 55, 0),
			keys.Insert(50, 1), keys.Insert(57, 2), keys.Delete(60),
		}},
		{"define-on-lo-inside-on-hi-outside", []keys.Query{
			keys.Insert(10, 1), keys.Delete(20), keys.AddDelta(10, 2), keys.SetIfAbsent(20, 3),
			keys.Scan(10, 20, 0),
		}},
		{"every-define-kind", []keys.Query{
			keys.Scan(0, 50, 0), keys.Search(1), keys.Insert(1, 1), keys.Delete(2),
			keys.AddDelta(3, 4), keys.SetIfAbsent(4, 5), keys.Search(4), keys.Insert(1, 6),
		}},
		{"defines-beyond-last-span", []keys.Query{
			keys.Scan(0, 10, 0), keys.Insert(5, 1), keys.Insert(11, 2), keys.Delete(top),
		}},
		{"span-to-top", []keys.Query{
			keys.Scan(top-3, top, 0), keys.Insert(top-3, 1), keys.Insert(top-1, 2), keys.Delete(top),
		}},
		{"no-points", []keys.Query{keys.Scan(0, 10, 0), keys.Scan(5, 8, 1)}},
	}
	pool := bsp.NewPool(2)
	defer pool.Close()
	var fill []keys.Query
	for k := keys.Key(0); k < 102; k += 3 {
		fill = append(fill, keys.Insert(k, keys.Value(k+1)))
	}
	fill = append(fill, keys.Insert(top-2, 7))
	rig := newScanRig(t, pool, fill) // reused: each pass reads the same pre-batch tree
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			walkedRows(t, rig, slices.Clone(c.batch))
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(13))
		for iter := 0; iter < 500; iter++ {
			space := 4 + r.Intn(60)
			batch := make([]keys.Query, 1+r.Intn(40))
			for i := range batch {
				k := keys.Key(r.Intn(space))
				switch r.Intn(8) {
				case 0, 1:
					lo := keys.Key(r.Intn(space))
					batch[i] = keys.Scan(lo, lo+keys.Key(r.Intn(space/2))-2, keys.Value(r.Intn(3)))
				case 2:
					batch[i] = keys.Insert(k, 1)
				case 3:
					batch[i] = keys.Delete(k)
				case 4:
					batch[i] = keys.AddDelta(k, 2)
				case 5:
					batch[i] = keys.SetIfAbsent(k, 3)
				default:
					batch[i] = keys.Search(k)
				}
			}
			walkedRows(t, rig, batch)
		}
	})
}

// TestScanBatchSinglePass checks the shape of scan-batch execution
// through the engine's stats block: S identical scans interleaved with
// W writes into their range cost one transform (the W same-key writes
// fold into one survivor) and one walk per scan, each merging the
// writes that precede it, where fencing paid one epoch per
// write-after-scan.
func TestScanBatchSinglePass(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		cfg := EngineConfig{Mode: IntraInter, CacheCapacity: 64, Pipeline: pipelined}
		cfg.Palm.Workers = 2
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()

		const S = 20
		var qs []keys.Query
		for i := 0; i < S; i++ {
			qs = append(qs, keys.Scan(0, 100, 0), keys.Insert(50, keys.Value(i)), keys.Search(50))
		}
		keys.Number(qs)
		in := make(chan *Job, 1)
		in <- &Job{Qs: qs}
		close(in)
		eng.ProcessStream(in, func(j *Job) {
			for i := 0; i < S; i++ {
				rows, _ := j.RS.ScanRows(int32(3 * i))
				if i == 0 && len(rows) != 0 {
					t.Fatalf("scan 0 sees %v, want nothing", rows)
				}
				if i > 0 && (len(rows) != 1 || rows[0] != keys.KV{Key: 50, Value: keys.Value(i - 1)}) {
					t.Fatalf("scan %d sees %v, want [{50 %d}]", i, rows, i-1)
				}
			}
		})
		st := eng.Stats()
		if st.RemainingQueries != 1+S || st.ScanQueries != S || st.ScanRows != S-1 {
			t.Errorf("pipelined=%v: remaining=%d scans=%d rows=%d, want %d (one define + one walk per scan), %d, %d",
				pipelined, st.RemainingQueries, st.ScanQueries, st.ScanRows, 1+S, S, S-1)
		}
		if st.InferredReturns != S {
			t.Errorf("pipelined=%v: %d searches inferred, want all %d", pipelined, st.InferredReturns, S)
		}
		for _, s := range []stats.Stage{stats.StageQSAT2, stats.StageFind, stats.StageEvaluate} {
			if st.Elapsed[s] <= 0 {
				t.Errorf("pipelined=%v: stage %v untimed", pipelined, s)
			}
		}
	}
}

// mixedScanEngine is the benchmark spine's mixed-write-batch workload
// at engine level: a gaussian 16 384-query batch generator (50 %
// updates, 10 % RMW, 2 % limited scans) over a prefilled tree, under
// the given mode.
func mixedScanEngine(tb testing.TB, mode Mode) (*Engine, func() []keys.Query, *keys.ResultSet) {
	tb.Helper()
	eng, err := NewEngine(EngineConfig{Mode: mode, CacheCapacity: 1 << 16, Palm: palm.Config{Workers: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	r := rand.New(rand.NewSource(42))
	gen := workload.NewGaussian(2 << 20)
	rs := keys.NewResultSet(0)
	qs := make([]keys.Query, 16384)
	next := func() []keys.Query {
		workload.FillBatchMixed(gen, r, qs, workload.MixedConfig{
			UpdateRatio: 0.5, RMWFrac: 0.10, ScanFrac: 0.02, ScanSpan: 128, ScanLimit: 64})
		return qs
	}
	for i := 0; i < 8; i++ {
		fill := workload.Prefill(gen, r, len(qs))
		rs.Reset(len(fill))
		eng.ProcessBatch(fill, rs)
	}
	return eng, next, rs
}

// TestScanBatchSteadyStateAllocs bounds what a full-size mixed batch
// allocates once every scratch buffer has grown: the overlay, the row
// slabs and the scan table are all reused, so what is left is the
// leaves the tree grows by and the BSP stage closures — far below the
// ~100 × 512 KiB the epoch planner's per-epoch slices cost.
func TestScanBatchSteadyStateAllocs(t *testing.T) {
	eng, next, rs := mixedScanEngine(t, IntraInter)
	run := func() {
		qs := next()
		rs.Reset(len(qs))
		eng.ProcessBatch(qs, rs)
	}
	for i := 0; i < 20; i++ {
		run() // grow every buffer to its steady size
	}
	const rounds = 10
	before := stats.CaptureMem()
	for i := 0; i < rounds; i++ {
		run()
	}
	d := stats.CaptureMem().Sub(before)
	if perBatch := d.Bytes / rounds; perBatch >= 64<<10 {
		t.Errorf("mixed scan batch allocates %d B (%d objects) per batch, want < 64 KiB",
			perBatch, d.Allocs/rounds)
	}
	if eng.Stats().ScanQueries == 0 || eng.Stats().ScanRows == 0 {
		t.Fatalf("workload ran no scans: %+v", eng.Stats())
	}
}

// TestScanPassWritesRowsOnce pins the scan pass's two exact costs on
// mixed-write-batch-shaped batches under the spine's Adaptive mode:
// every row the result set's slabs take is a final row (slab rows
// equal ScanRows), and the pass is one superstep.
func TestScanPassWritesRowsOnce(t *testing.T) {
	eng, next, rs := mixedScanEngine(t, Adaptive)
	for i := 0; i < 4; i++ {
		qs := next()
		rs.Reset(len(qs))
		eng.ProcessBatch(qs, rs)
		slabRows := 0
		for _, sl := range rs.ScanSlabs(0) {
			slabRows += sl.Rows()
		}
		st := eng.Stats()
		if st.ScanQueries == 0 || st.ScanRows == 0 {
			t.Fatalf("batch %d ran no scans: %+v", i, st)
		}
		if slabRows != st.ScanRows {
			t.Fatalf("batch %d: the slabs took %d rows for %d final rows", i, slabRows, st.ScanRows)
		}
	}

	// The pass alone, over the next batch's split and sorted points.
	qs := next()
	var ov scanOverlay
	pts := ov.build(qs)
	keys.SortByKey(pts)
	rs.Reset(len(qs))
	before := eng.Pool().Dispatched()
	rows := eng.Processor().EvalScans(ov.scans, pts, rs)
	if d := eng.Pool().Dispatched() - before; d != 1 || rows == 0 {
		t.Fatalf("scan pass: %d supersteps, %d rows; want 1 superstep", d, rows)
	}
}

// BenchmarkMixedScanBatch times the same workload through the engine's
// own batch path, transform then apply, as processBatch runs a batch
// this size (on the pool's workers): Adaptive, the spine's mode, which
// takes the unreduced path on this workload, and IntraInter, which
// reduces every batch. Besides queries/s it reports, in ns per
// submitted query, the two scan steps: the split of scans from points
// (build, in transform) and the scan superstep (in apply). Both are
// re-timed on each batch with the benchmark timer stopped, between
// transform and apply, over the same batch and pre-batch tree — the
// pass only reads the tree — into a scratch result set.
//
//	go test -run '^$' -bench MixedScanBatch -benchmem ./internal/core
func BenchmarkMixedScanBatch(b *testing.B) {
	for _, mode := range []Mode{Adaptive, IntraInter} {
		b.Run(mode.String(), func(b *testing.B) {
			eng, next, rs := mixedScanEngine(b, mode)
			p, st := &eng.serial, eng.Stats()
			var ov scanOverlay
			scratch := keys.NewResultSet(0)
			var build, pass time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qs := next()
				rs.Reset(len(qs))
				st.Reset()
				st.BatchSize = len(qs)
				eng.transform(p, qs, rs)

				b.StopTimer()
				t0 := time.Now()
				ov.build(qs)
				build += time.Since(t0)
				scratch.Reset(len(qs))
				t0 = time.Now()
				eng.proc.EvalScans(p.ov.scans, p.ov.points, scratch)
				pass += time.Since(t0)
				b.StartTimer()

				eng.apply(p, rs)
			}
			if st.ScanQueries == 0 || st.ScanRows == 0 {
				b.Fatalf("workload ran no scans: %+v", st)
			}
			perQuery := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*16384) }
			b.ReportMetric(perQuery(build), "build-ns/query")
			b.ReportMetric(perQuery(pass), "scan-pass-ns/query")
			b.ReportMetric(float64(b.N)*16384/b.Elapsed().Seconds(), "queries/s")
		})
	}
}
