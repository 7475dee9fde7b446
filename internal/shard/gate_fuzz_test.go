package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
	"repro/internal/stats"
)

// gateSpan is FuzzGateEquivalence's key space: wide enough for a batch
// of distinct keys (duplicate share 0) at the gate's smallest counted
// batch size, small enough that later batches meet earlier keys.
const gateSpan = 1024

// decodeGateBatches turns fuzz bytes into up to 16 batches whose
// duplicate shares span [0, 1), so the Adaptive gate's per-batch QSAT
// decision and its cache mode flip both ways. Each batch takes eight
// bytes: size, duplicates, key base, flags and four op bytes.
//
//   - size h: an odd h is a small batch of 1–128 queries (below the
//     gate's 256-point floor, so it moves nothing); an even h is 256–383
//     queries;
//   - duplicates g: the batch uses m = max(1, n·g/255) distinct keys,
//     query j taking slot j mod m, so d = 1 − m/n;
//   - base: slot s maps to key (base·4 + 37·s) mod gateSpan;
//   - flags bit 0 lets the op bytes pick scans and RMWs, which make the
//     batch drain the cache instead of running the cache pass.
func decodeGateBatches(data []byte) [][]keys.Query {
	var batches [][]keys.Query
	for i := 0; i+8 <= len(data) && len(batches) < 16; i += 8 {
		h, g, base, flags, ops := data[i], data[i+1], data[i+2], data[i+3], data[i+4:i+8]
		n := 256 + int(h>>1)
		if h&1 == 1 {
			n = 1 + int(h>>1)
		}
		m := max(1, n*int(g)/255)
		qs := make([]keys.Query, n)
		for j := range qs {
			k := keys.Key((int(base)*4 + 37*(j%m)) % gateSpan)
			sel := ops[j%4] ^ byte(j>>2)
			if flags&1 == 0 {
				sel %= 11 // point ops only
			}
			switch sel % 16 {
			case 6, 7, 8:
				qs[j] = keys.Insert(k, keys.Value(sel)<<16|keys.Value(i)<<4|keys.Value(j&15))
			case 9, 10:
				qs[j] = keys.Delete(k)
			case 11:
				qs[j] = keys.AddDelta(k, keys.Value(sel))
			case 12:
				qs[j] = keys.SetIfAbsent(k, keys.Value(i))
			case 13:
				qs[j] = keys.Scan(k, k+keys.Key(sel), keys.Value(sel>>6))
			default:
				qs[j] = keys.Search(k)
			}
		}
		batches = append(batches, keys.Number(qs))
	}
	return batches
}

// gateSeed encodes batches for decodeGateBatches: each entry is
// {size, duplicates, base, flags}, all with the same op bytes.
func gateSeed(ops [4]byte, shapes ...[4]byte) []byte {
	var b []byte
	for _, s := range shapes {
		b = append(b, s[:]...)
		b = append(b, ops[:]...)
	}
	return b
}

// gateCounters are the per-batch decisions and counters every worker
// count must reproduce.
type gateCounters struct {
	QSATSkipped, CacheOn, CacheModeSwitches, CacheDrains int
	CacheHits, CacheMisses, CacheFlushes, CacheEvictions int
	RemainingQueries, InferredReturns                    int
}

func gateCountersOf(st *stats.Batch) gateCounters {
	return gateCounters{
		st.QSATSkipped, st.CacheOn, st.CacheModeSwitches, st.CacheDrains,
		st.CacheHits, st.CacheMisses, st.CacheFlushes, st.CacheEvictions,
		st.RemainingQueries, st.InferredReturns,
	}
}

func gateEngineConfig(workers int, pipeline bool) core.EngineConfig {
	return core.EngineConfig{
		Mode:          core.Adaptive,
		Palm:          palm.Config{Order: 8, Workers: workers, LoadBalance: true},
		CacheCapacity: 16,
		Pipeline:      pipeline,
	}
}

// FuzzGateEquivalence is the Adaptive gate's differential fuzzer.
// Batch sequences whose duplicate share crosses the gate's crossover
// both ways make QSAT flip per batch and the cache go off (draining
// it), stay empty, and come back on mid-stream. The batches run through
// unsharded engines serially at 1, 2 and 3 workers and pipelined, and
// through a 2-shard engine serially and pipelined. Every batch's
// results and the final store must match the oracle, and the unsharded
// arms must report identical per-batch gate decisions and counters.
func FuzzGateEquivalence(f *testing.F) {
	search, write := [4]byte{0, 6, 1, 9}, [4]byte{6, 7, 8, 9}
	// Hot writes fill the cache, distinct-key searches switch it off
	// over those keys, hot batches switch it back on.
	f.Add(gateSeed(write,
		[4]byte{0, 0, 0, 0}, [4]byte{0, 3, 0, 0},
		[4]byte{40, 255, 0, 0}, [4]byte{40, 255, 0, 0}, [4]byte{40, 255, 0, 0},
		[4]byte{0, 0, 0, 0}, [4]byte{0, 0, 0, 0}, [4]byte{0, 0, 0, 0}, [4]byte{0, 0, 0, 0},
		[4]byte{0, 0, 0, 0}, [4]byte{0, 0, 0, 0}, [4]byte{0, 1, 0, 0}))
	f.Add(gateSeed(search,
		[4]byte{2, 1, 5, 0}, [4]byte{100, 255, 5, 0}, [4]byte{100, 255, 5, 0}, [4]byte{3, 9, 5, 0},
		[4]byte{100, 2, 5, 0}, [4]byte{100, 1, 5, 0}, [4]byte{100, 1, 5, 0}, [4]byte{100, 1, 5, 0},
		[4]byte{100, 1, 5, 0}, [4]byte{100, 1, 5, 0}, [4]byte{100, 200, 5, 0}))
	// Scans and RMWs on both sides of a switch.
	f.Add(gateSeed([4]byte{6, 11, 13, 12},
		[4]byte{0, 2, 9, 1}, [4]byte{0, 2, 9, 0}, [4]byte{20, 255, 9, 1}, [4]byte{20, 255, 9, 0},
		[4]byte{20, 255, 9, 0}, [4]byte{0, 1, 9, 1}, [4]byte{0, 1, 9, 0}, [4]byte{0, 1, 9, 0},
		[4]byte{0, 1, 9, 0}, [4]byte{0, 1, 9, 0}, [4]byte{0, 1, 9, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := decodeGateBatches(data)
		if len(batches) == 0 {
			return
		}
		want := make([]*keys.ResultSet, len(batches))
		orc := oracle.New()
		for i, b := range batches {
			want[i] = keys.NewResultSet(len(b))
			orc.ApplyAll(b, want[i])
		}
		wk, wv := orc.Dump()

		checkStore := func(tag string, ks []keys.Key, vs []keys.Value) {
			t.Helper()
			if len(ks) != len(wk) {
				t.Fatalf("%s: final store %d keys, want %d", tag, len(ks), len(wk))
			}
			for i := range wk {
				if ks[i] != wk[i] || vs[i] != wv[i] {
					t.Fatalf("%s: store[%d] = (%d,%d), want (%d,%d)", tag, i, ks[i], vs[i], wk[i], wv[i])
				}
			}
		}
		sameCounters := func(tag string, got, ref []gateCounters) {
			t.Helper()
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s batch %d: %+v, reference %+v", tag, i, got[i], ref[i])
				}
			}
		}
		// run drives one engine serially or as a stream and returns its
		// per-batch counters.
		type runner interface {
			ProcessBatch([]keys.Query, *keys.ResultSet)
			ProcessStream(<-chan *core.Job, func(*core.Job))
			Stats() *stats.Batch
		}
		run := func(tag string, eng runner, stream bool) []gateCounters {
			t.Helper()
			var counts []gateCounters
			if !stream {
				for i, b := range batches {
					got := keys.NewResultSet(len(b))
					eng.ProcessBatch(append([]keys.Query(nil), b...), got)
					diffResults(t, tag, i, want[i], got, len(b))
					counts = append(counts, gateCountersOf(eng.Stats()))
				}
				return counts
			}
			in := make(chan *core.Job)
			go func() {
				for _, b := range batches {
					in <- &core.Job{Qs: append([]keys.Query(nil), b...)}
				}
				close(in)
			}()
			eng.ProcessStream(in, func(j *core.Job) {
				i := len(counts)
				diffResults(t, tag, i, want[i], j.RS, len(batches[i]))
				counts = append(counts, gateCountersOf(eng.Stats()))
			})
			return counts
		}

		var ref []gateCounters
		for _, arm := range []struct {
			workers int
			stream  bool
		}{{1, false}, {2, false}, {3, false}, {2, true}} {
			tag := "unsharded workers " + string(rune('0'+arm.workers))
			if arm.stream {
				tag += " pipelined"
			}
			eng, err := core.NewEngine(gateEngineConfig(arm.workers, arm.stream))
			if err != nil {
				t.Fatal(err)
			}
			counts := run(tag, eng, arm.stream)
			eng.Flush()
			ks, vs := eng.Processor().Tree().Dump()
			eng.Close()
			checkStore(tag, ks, vs)
			if ref == nil {
				ref = counts
			}
			sameCounters(tag, counts, ref)
		}

		// The sharded arms check results and stores: each shard's gate
		// sees its own sub-batches, so its decisions differ from the
		// unsharded ones, and a split stream keeps no per-batch stats.
		for _, stream := range []bool{false, true} {
			tag := "2 shards"
			if stream {
				tag += " pipelined"
			}
			eng, err := New(Config{Shards: 2, Engine: gateEngineConfig(2, stream), KeyMax: gateSpan - 1})
			if err != nil {
				t.Fatal(err)
			}
			run(tag, eng, stream)
			ks, vs := eng.Dump()
			eng.Close()
			checkStore(tag, ks, vs)
		}
	})
}
