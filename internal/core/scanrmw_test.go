package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// mixedBatch builds one batch drawing from all five operations over a
// small key space, so in-batch key collisions (and therefore scans
// with defines on their keys, RMW chains, and covering scans) are
// common.
func mixedBatch(r *rand.Rand, size, keySpace int) []keys.Query {
	qs := make([]keys.Query, size)
	for i := range qs {
		k := keys.Key(r.Intn(keySpace))
		switch r.Intn(8) {
		case 0, 1:
			qs[i] = keys.Insert(k, keys.Value(r.Intn(1_000_000)))
		case 2:
			qs[i] = keys.Delete(k)
		case 3:
			span := keys.Key(1 + r.Intn(keySpace/2))
			qs[i] = keys.Scan(k, k+span, keys.Value(r.Intn(4))) // limit 0..3
		case 4:
			qs[i] = keys.AddDelta(k, keys.Value(1+r.Intn(100)))
		case 5:
			qs[i] = keys.SetIfAbsent(k, keys.Value(r.Intn(1_000_000)))
		default:
			qs[i] = keys.Search(k)
		}
	}
	return keys.Number(qs)
}

// compareBatch checks every point result and every scan row set of got
// against want (the oracle's ResultSet for the same batch).
func compareBatch(t *testing.T, tag string, batch []keys.Query, want, got *keys.ResultSet) {
	t.Helper()
	for i := range batch {
		idx := batch[i].Idx
		w, wok := want.Get(idx)
		g, gok := got.Get(idx)
		if wok != gok || w != g {
			t.Fatalf("%s: query %d (%v): got %+v (%v), want %+v (%v)",
				tag, i, batch[i].Op, g, gok, w, wok)
		}
		if batch[i].Op != keys.OpScan {
			continue
		}
		wr, _ := want.ScanRows(idx)
		gr, ok := got.ScanRows(idx)
		if !ok && len(wr) > 0 {
			t.Fatalf("%s: scan %d: no rows recorded, want %v", tag, i, wr)
		}
		if len(wr) != len(gr) {
			t.Fatalf("%s: scan %d [%d,%d) limit %d: %d rows, want %d\n got %v\nwant %v",
				tag, i, batch[i].Key, batch[i].Key2, batch[i].Value, len(gr), len(wr), gr, wr)
		}
		for j := range wr {
			if wr[j] != gr[j] {
				t.Fatalf("%s: scan %d row %d = %+v, want %+v", tag, i, j, gr[j], wr[j])
			}
		}
	}
}

// scanRMWDifferential streams mixed batches through an engine and the
// oracle, comparing all results per batch and the store at the end.
func scanRMWDifferential(t *testing.T, cfg EngineConfig, batches [][]keys.Query) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	o := oracle.New()

	for bi, batch := range batches {
		want := keys.NewResultSet(len(batch))
		o.ApplyAll(batch, want)
		got := keys.NewResultSet(len(batch))
		eng.ProcessBatch(batch, got)
		compareBatch(t, cfg.Mode.String()+" batch "+itoa(bi), batch, want, got)
		if err := eng.Processor().Tree().Validate(btree.RelaxedFill); err != nil {
			t.Fatalf("mode=%v batch %d: %v", cfg.Mode, bi, err)
		}
	}

	eng.Flush()
	gk, gv := eng.Processor().Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("mode=%v: final sizes %d vs %d", cfg.Mode, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("mode=%v: final store mismatch at %d: (%d,%d) vs (%d,%d)",
				cfg.Mode, i, gk[i], gv[i], wk[i], wv[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestEngineScanRMWDifferential is the main differential arm for the
// extended query set: every engine mode against the oracle on batches
// mixing all five operations.
func TestEngineScanRMWDifferential(t *testing.T) {
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		t.Run(mode.String()+"/gapped", func(t *testing.T) {
			r := rand.New(rand.NewSource(7 * int64(mode)))
			batches := make([][]keys.Query, 12)
			for b := range batches {
				batches[b] = mixedBatch(r, 200, 64)
			}
			cfg := EngineConfig{Mode: mode}
			cfg.Palm.Workers = 3
			scanRMWDifferential(t, cfg, batches)
		})
	}
}

// TestEngineScanRMWSmallBatches is the random-5-op-batch property of
// the QSAT extension: for many independent tiny batches — where every
// interleaving of scan overlays, RMW folds, and covering kills is likely
// hit eventually — the transformed execution must equal the serial
// oracle.
func TestEngineScanRMWSmallBatches(t *testing.T) {
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(mode) + 1))
			batches := make([][]keys.Query, 400)
			for b := range batches {
				batches[b] = mixedBatch(r, 5, 8)
			}
			cfg := EngineConfig{Mode: mode}
			cfg.Palm.Workers = 2
			scanRMWDifferential(t, cfg, batches)
		})
	}
}

// TestEngineScanRMWPipeline drives mixed batches through the two-stage
// pipeline: extended batches build their overlay in stage A and drain,
// evaluate and patch inside the tree stage, and results must still
// match the oracle in stream order.
func TestEngineScanRMWPipeline(t *testing.T) {
	for _, mode := range []Mode{Original, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := EngineConfig{Mode: mode, Pipeline: true, CacheCapacity: 128}
			cfg.Palm.Workers = 2
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			o := oracle.New()

			r := rand.New(rand.NewSource(99))
			const nBatches = 16
			jobs := make([]*Job, nBatches)
			wants := make([]*keys.ResultSet, nBatches)
			for b := range jobs {
				var qs []keys.Query
				if b%3 == 2 {
					// Interleave point-only batches: the pipeline must
					// switch between the fast path and the extended path.
					qs = mixedPointBatch(r, 100, 64)
				} else {
					qs = mixedBatch(r, 100, 64)
				}
				jobs[b] = &Job{Qs: qs, Tag: b}
				wants[b] = keys.NewResultSet(len(qs))
				o.ApplyAll(qs, wants[b])
			}

			in := make(chan *Job)
			go func() {
				for _, j := range jobs {
					in <- j
				}
				close(in)
			}()
			done := 0
			eng.ProcessStream(in, func(j *Job) {
				b := j.Tag.(int)
				compareBatch(t, "pipeline batch "+itoa(b), j.Qs, wants[b], j.RS)
				done++
			})
			if done != nBatches {
				t.Fatalf("completed %d batches, want %d", done, nBatches)
			}
		})
	}
}

func mixedPointBatch(r *rand.Rand, size, keySpace int) []keys.Query {
	qs := make([]keys.Query, size)
	for i := range qs {
		k := keys.Key(r.Intn(keySpace))
		switch r.Intn(4) {
		case 0:
			qs[i] = keys.Insert(k, keys.Value(r.Intn(1000)))
		case 1:
			qs[i] = keys.Delete(k)
		default:
			qs[i] = keys.Search(k)
		}
	}
	return keys.Number(qs)
}

// TestCoveringKillNeverDropsKeys is the nested/identical scan
// property: for random groups of scans over a random store — ranges
// nested inside an outer one, some repeated exactly, limited and
// unlimited, some empty — every scan's rows must equal a direct
// evaluation of its own range, and no scan returns more rows than its
// limit.
func TestCoveringKillNeverDropsKeys(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	pool := bsp.NewPool(2)
	defer pool.Close()
	for iter := 0; iter < 500; iter++ {
		var fill []keys.Query
		for i := 0; i < 40; i++ {
			k := keys.Key(r.Intn(64))
			fill = append(fill, keys.Insert(k, keys.Value(k*3+1)))
		}
		rig := newScanRig(t, pool, fill)

		lo := keys.Key(r.Intn(64))
		hi := lo + keys.Key(r.Intn(32))
		group := make([]keys.Query, 1+r.Intn(6))
		for i := range group {
			switch {
			case i > 0 && r.Intn(3) == 0: // identical to an earlier scan
				group[i] = group[r.Intn(i)]
			case r.Intn(4) == 0: // anywhere
				l := keys.Key(r.Intn(64))
				group[i] = keys.Scan(l, l+keys.Key(r.Intn(32)), keys.Value(r.Intn(3)))
			default: // nested in [lo, hi)
				l := lo + keys.Key(r.Intn(int(hi-lo)+1))
				h := l + keys.Key(r.Intn(int(hi-l)+1))
				group[i] = keys.Scan(l, h, keys.Value(r.Intn(3)))
			}
		}
		walkedRows(t, rig, group)
		for _, q := range rig.ov.scans {
			if rows, _ := rig.rs.ScanRows(q.Idx); q.Value > 0 && keys.Value(len(rows)) > q.Value {
				t.Fatalf("iter %d: scan [%d,%d) limit %d returned %d rows", iter, q.Key, q.Key2, q.Value, len(rows))
			}
		}
	}
}

// TestEngineScanStats checks the scan counters: a batch with two
// identical unlimited scans and one sub-range scan walks the tree once
// per scan and reports the summed row count.
func TestEngineScanStats(t *testing.T) {
	cfg := EngineConfig{Mode: IntraInter}
	cfg.Palm.Workers = 2
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	fill := make([]keys.Query, 10)
	for i := range fill {
		fill[i] = keys.Insert(keys.Key(i*2), keys.Value(i))
	}
	rs := keys.NewResultSet(len(fill))
	eng.ProcessBatch(keys.Number(fill), rs)

	qs := keys.Number([]keys.Query{
		keys.Scan(0, 20, 0), // all 10 keys
		keys.Scan(0, 20, 0), // identical: its own walk, same rows
		keys.Scan(4, 8, 0),  // contained: keys 4, 6
	})
	rs.Reset(len(qs))
	eng.ProcessBatch(qs, rs)
	st := eng.Stats()
	if st.ScanQueries != 3 {
		t.Fatalf("ScanQueries = %d, want 3", st.ScanQueries)
	}
	if st.RemainingQueries != 3 {
		t.Fatalf("RemainingQueries = %d, want 3 (one walk per scan)", st.RemainingQueries)
	}
	if st.ScanRows != 10+10+2 {
		t.Fatalf("ScanRows = %d, want 22", st.ScanRows)
	}
	for i, want := range []int{10, 10, 2} {
		rows, ok := rs.ScanRows(int32(i))
		if !ok || len(rows) != want {
			t.Fatalf("scan %d: %d rows (%v), want %d", i, len(rows), ok, want)
		}
	}
}

// TestEngineCacheDrainedBeforeScan pins the inter-batch cache rule: a
// value buffered in the top-K cache must be visible to a scan in a
// later batch (the extended path drains the cache before touching the
// tree).
func TestEngineCacheDrainedBeforeScan(t *testing.T) {
	cfg := EngineConfig{Mode: IntraInter, CacheCapacity: 64}
	cfg.Palm.Workers = 2
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Batch 1: hot-key writes that stay buffered in the cache.
	b1 := keys.Number([]keys.Query{
		keys.Insert(5, 50), keys.Search(5), keys.Insert(5, 51), keys.Search(5),
	})
	rs := keys.NewResultSet(len(b1))
	eng.ProcessBatch(b1, rs)

	// Batch 2: the scan must see the cached write.
	b2 := keys.Number([]keys.Query{keys.Scan(0, 10, 0)})
	rs.Reset(len(b2))
	eng.ProcessBatch(b2, rs)
	rows, ok := rs.ScanRows(0)
	if !ok || len(rows) != 1 || rows[0] != (keys.KV{Key: 5, Value: 51}) {
		t.Fatalf("scan rows = %v (%v), want [{5 51}]", rows, ok)
	}

	// Batch 3: point queries still work after the drain.
	b3 := keys.Number([]keys.Query{keys.Search(5)})
	rs.Reset(len(b3))
	eng.ProcessBatch(b3, rs)
	if r, _ := rs.Get(0); !r.Found || r.Value != 51 {
		t.Fatalf("post-drain search = %+v", r)
	}
}

// FuzzRangeRMWEquivalence is the extended-query differential fuzzer:
// arbitrary bytes decode into a batch mixing all five operations, which
// must produce oracle-identical results and final stores under the org
// and inter engine modes over an empty default-order tree, and under
// Adaptive over an order-4 tree prefilled with every other fuzz key at
// 1 and 3 workers — there the keys span many leaves, so scans cross
// leaves and start in the middle of one.
func FuzzRangeRMWEquivalence(f *testing.F) {
	f.Add([]byte{3, 0, 16, 1, 5, 7, 3, 0, 16})          // scan, insert, identical scan
	f.Add([]byte{4, 2, 9, 4, 2, 9, 0, 2, 0})            // RMW chain then search
	f.Add([]byte{1, 4, 8, 3, 2, 40, 2, 4, 0, 3, 2, 40}) // write, scan, delete, rescan
	f.Add([]byte("covering-scans-and-rmw-fences"))
	f.Add([]byte{1, 5, 9, 2, 4, 0, 3, 4, 0x26})                           // limit 1 of [4,10) reached on the deleted 4 → 5
	f.Add([]byte{1, 9, 5, 1, 10, 6, 3, 4, 6, 5, 9, 1, 3, 4, 6})           // defines on hi-1 and hi of [4,10)
	f.Add([]byte{1, 23, 3, 4, 22, 2, 3, 17, 0x1f, 2, 23, 0, 3, 20, 0x3f}) // scans to the top of the key space

	f.Fuzz(func(t *testing.T, data []byte) {
		qs := decodeMixedQueries(data)
		if len(qs) == 0 {
			return
		}
		for _, mode := range []Mode{Original, IntraInter} {
			cfg := EngineConfig{Mode: mode}
			cfg.Palm.Workers = 2
			fuzzRangeArm(t, cfg, nil, slices.Clone(qs))
		}
		var fill []keys.Query
		for k := keys.Key(0); k < 24; k += 2 {
			fill = append(fill, keys.Insert(k, keys.Value(k)+100))
		}
		for _, workers := range []int{1, 3} {
			cfg := EngineConfig{Mode: Adaptive, CacheCapacity: 8}
			cfg.Palm.Order, cfg.Palm.Workers = 4, workers
			fuzzRangeArm(t, cfg, keys.Number(slices.Clone(fill)), slices.Clone(qs))
		}
	})
}

// fuzzRangeArm runs fill (when non-empty) and then qs through a fresh
// engine and the oracle, comparing qs's results and the final stores.
func fuzzRangeArm(t *testing.T, cfg EngineConfig, fill, qs []keys.Query) {
	t.Helper()
	tag := cfg.Mode.String() + " order " + itoa(cfg.Palm.Order) + " workers " + itoa(cfg.Palm.Workers)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	o := oracle.New()
	if len(fill) > 0 {
		o.ApplyAll(fill, nil)
		eng.ProcessBatch(fill, keys.NewResultSet(len(fill)))
	}
	want := keys.NewResultSet(len(qs))
	o.ApplyAll(qs, want)
	got := keys.NewResultSet(len(qs))
	eng.ProcessBatch(qs, got)
	compareBatch(t, tag, qs, want, got)

	eng.Flush()
	gk, gv := eng.Processor().Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("%s: final sizes %d vs %d", tag, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("%s: final mismatch at %d", tag, i)
		}
	}
}

// decodeMixedQueries turns fuzz bytes into a query sequence over a
// small key space, three bytes per query: op selector, key, and an
// auxiliary byte (scan width + limit, RMW delta, insert value). A scan
// width of 31 runs the scan to the top of the key space.
func decodeMixedQueries(data []byte) []keys.Query {
	var qs []keys.Query
	for i := 0; i+2 < len(data); i += 3 {
		k := keys.Key(data[i+1] % 24)
		aux := data[i+2]
		switch data[i] % 6 {
		case 0:
			qs = append(qs, keys.Search(k))
		case 1:
			qs = append(qs, keys.Insert(k, keys.Value(aux)))
		case 2:
			qs = append(qs, keys.Delete(k))
		case 3:
			hi := k + keys.Key(aux%32)
			if aux%32 == 31 {
				hi = ^keys.Key(0)
			}
			qs = append(qs, keys.Scan(k, hi, keys.Value(aux>>5))) // limit 0..7
		case 4:
			qs = append(qs, keys.AddDelta(k, keys.Value(aux)))
		default:
			qs = append(qs, keys.SetIfAbsent(k, keys.Value(aux)))
		}
	}
	return keys.Number(qs)
}
