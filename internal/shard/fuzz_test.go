package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// fuzzSpan is the fuzz key space. Keys land in [0, fuzzSpan); the
// sharded engines split that range, so shard boundaries fall on keys
// the fuzzer actually generates (including exact-boundary hits).
const fuzzSpan = 64

// decodeFuzzBatches turns fuzz bytes into a sequence of batches over
// the small key space: two bytes per query (op selector, key), with a
// 0xFF op byte ending the current batch so the fuzzer can explore
// inter-batch state (cache flushes, rebalances) too. All five
// operations are generated; scan widths regularly straddle shard
// boundaries (the key space splits 2/3/8 ways), exercising the
// split-and-merge path.
func decodeFuzzBatches(data []byte) [][]keys.Query {
	var batches [][]keys.Query
	var cur []keys.Query
	for i := 0; i+1 < len(data); i += 2 {
		if data[i] == 0xFF {
			batches = append(batches, keys.Number(cur))
			cur = nil
			continue
		}
		k := keys.Key(data[i+1] % fuzzSpan)
		switch data[i] % 6 {
		case 0:
			cur = append(cur, keys.Search(k))
		case 1:
			cur = append(cur, keys.Insert(k, keys.Value(data[i])<<8|keys.Value(i)))
		case 2:
			cur = append(cur, keys.Delete(k))
		case 3:
			hi := k + keys.Key(data[i]%fuzzSpan)
			cur = append(cur, keys.Scan(k, hi, keys.Value(data[i]>>6))) // limit 0..3
		case 4:
			cur = append(cur, keys.AddDelta(k, keys.Value(data[i])))
		default:
			cur = append(cur, keys.SetIfAbsent(k, keys.Value(data[i])<<8|keys.Value(i)))
		}
	}
	if len(cur) > 0 {
		batches = append(batches, keys.Number(cur))
	}
	return batches
}

// FuzzShardEquivalence is the differential property at the heart of
// this package: for ANY batch sequence, the sharded engine (N in
// {1, 2, 3, 8}, serial and pipelined) returns byte-identical results
// and final stores to the oracle and the unsharded engine. Batches
// where every query hits one shard (the fast path) and keys exactly on
// shard boundaries arise naturally from the small key space; dedicated
// seeds pin them.
func FuzzShardEquivalence(f *testing.F) {
	// All-ops mix across several batches.
	f.Add([]byte{1, 10, 0, 10, 2, 10, 0xFF, 0, 0, 1, 63, 0, 63, 2, 63, 0, 63})
	// Exact boundary keys for N=2 (32), N=3 (22, 44) and N=8 (8k).
	f.Add([]byte{1, 32, 0, 32, 1, 22, 0, 44, 1, 8, 0, 16, 1, 24, 0, 48, 1, 56, 0, 56})
	// Single-shard batch: every key below the lowest boundary.
	f.Add([]byte{1, 1, 0, 1, 2, 2, 0, 2, 1, 3, 0, 3, 0xFF, 1, 5, 0, 5})
	// Duplicate keys, delete-heavy.
	f.Add([]byte{2, 7, 2, 7, 2, 7, 1, 7, 0, 7, 2, 7, 0, 7})
	// Empty-batch separators back to back.
	f.Add([]byte{0xFF, 0, 0xFF, 0, 1, 9, 0xFF, 0, 0, 9})
	// Straddling scans: op byte 63 -> scan of width 63 from key 0,
	// crossing every boundary of the 2/3/8-way splits, with an RMW
	// (op 4) fencing between two of them.
	f.Add([]byte{1, 10, 1, 30, 1, 50, 63, 0, 4, 40, 63, 0})
	// Limited straddling scan (op 195 -> width 3, limit 3) across the
	// N=2 boundary at 32, plus set-if-absent (op 5) on the boundary.
	f.Add([]byte{1, 31, 1, 32, 1, 33, 195, 31, 5, 32, 0, 32})

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := decodeFuzzBatches(data)
		if len(batches) == 0 {
			return
		}

		type arm struct {
			name string
			eng  *Engine
		}
		var arms []arm
		for _, n := range []int{1, 2, 3, 8} {
			for _, pipelined := range []bool{false, true} {
				e, err := New(Config{
					Shards: n,
					Engine: testEngineConfig(core.IntraInter, pipelined),
					KeyMax: fuzzSpan - 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				arms = append(arms, arm{name: armName(n, pipelined), eng: e})
			}
		}

		plain, err := core.NewEngine(testEngineConfig(core.IntraInter, false))
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()

		orc := oracle.New()
		for bi, qs := range batches {
			want := keys.NewResultSet(len(qs))
			orc.ApplyAll(append([]keys.Query(nil), qs...), want)

			plainRS := keys.NewResultSet(len(qs))
			plain.ProcessBatch(append([]keys.Query(nil), qs...), plainRS)
			diffResults(t, "unsharded", bi, want, plainRS, len(qs))

			for _, a := range arms {
				rs := keys.NewResultSet(len(qs))
				a.eng.ProcessBatch(append([]keys.Query(nil), qs...), rs)
				diffResults(t, a.name, bi, want, rs, len(qs))
			}
		}

		oks, ovs := orc.Dump()
		for _, a := range arms {
			ks, vs := a.eng.Dump()
			if len(ks) != len(oks) {
				t.Fatalf("%s: final store %d keys, want %d", a.name, len(ks), len(oks))
			}
			for i := range oks {
				if ks[i] != oks[i] || vs[i] != ovs[i] {
					t.Fatalf("%s: store[%d] = (%d,%d), want (%d,%d)",
						a.name, i, ks[i], vs[i], oks[i], ovs[i])
				}
			}
		}
	})
}

func armName(n int, pipelined bool) string {
	name := "shards=" + string(rune('0'+n))
	if pipelined {
		return name + "+pipe"
	}
	return name
}

func diffResults(t *testing.T, tag string, batch int, want, got *keys.ResultSet, n int) {
	t.Helper()
	for i := int32(0); i < int32(n); i++ {
		w, wok := want.Get(i)
		g, gok := got.Get(i)
		if wok != gok || w != g {
			t.Fatalf("%s: batch %d idx %d: got %+v (%v), want %+v (%v)", tag, batch, i, g, gok, w, wok)
		}
		// Scan rows too: a missing row set and an empty one are
		// equivalent (non-scan indices have neither).
		wr, _ := want.ScanRows(i)
		gr, _ := got.ScanRows(i)
		if len(wr) != len(gr) {
			t.Fatalf("%s: batch %d idx %d: %d scan rows, want %d\n got %v\nwant %v",
				tag, batch, i, len(gr), len(wr), gr, wr)
		}
		for j := range wr {
			if wr[j] != gr[j] {
				t.Fatalf("%s: batch %d idx %d row %d: %+v, want %+v", tag, batch, i, j, gr[j], wr[j])
			}
		}
	}
}

// FuzzShardRebalance replays random batches with a Rebalance between
// every pair of batches, asserting rebalancing never perturbs results
// or the final store.
func FuzzShardRebalance(f *testing.F) {
	f.Add([]byte{1, 10, 1, 20, 1, 30, 0xFF, 0, 10, 2, 20, 0, 30, 0xFF, 0, 10, 0, 20})
	f.Add([]byte{1, 32, 0xFF, 0, 32, 2, 32, 0xFF, 0, 32})

	f.Fuzz(func(t *testing.T, data []byte) {
		batches := decodeFuzzBatches(data)
		if len(batches) == 0 {
			return
		}
		e, err := New(Config{
			Shards: 3,
			Engine: testEngineConfig(core.IntraInter, false),
			KeyMax: fuzzSpan - 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()

		orc := oracle.New()
		for bi, qs := range batches {
			want := keys.NewResultSet(len(qs))
			orc.ApplyAll(append([]keys.Query(nil), qs...), want)
			rs := keys.NewResultSet(len(qs))
			e.ProcessBatch(append([]keys.Query(nil), qs...), rs)
			diffResults(t, "rebalanced", bi, want, rs, len(qs))
			if _, err := e.Rebalance(); err != nil {
				t.Fatal(err)
			}
		}
		oks, ovs := orc.Dump()
		ks, vs := e.Dump()
		if len(ks) != len(oks) {
			t.Fatalf("final store %d keys, want %d", len(ks), len(oks))
		}
		for i := range oks {
			if ks[i] != oks[i] || vs[i] != ovs[i] {
				t.Fatalf("store[%d] = (%d,%d), want (%d,%d)", i, ks[i], vs[i], oks[i], ovs[i])
			}
		}
	})
}
