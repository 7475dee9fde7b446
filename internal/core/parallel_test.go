package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/keys"
)

// batchShape is one named batch the transform equivalence test runs.
type batchShape struct {
	name string
	qs   []keys.Query
}

// transformShapes covers the batch shapes the sort-once Transform must
// handle: sizes around inlineBatch, no duplicates, zipf skew, one run
// longer than a worker's share, a single-key batch, and RMW runs.
func transformShapes() []batchShape {
	r := rand.New(rand.NewSource(41))
	op := func(k keys.Key, rmw bool) keys.Query {
		n := 4
		if rmw {
			n = 6
		}
		switch r.Intn(n) {
		case 0:
			return keys.Insert(k, keys.Value(r.Intn(1000)))
		case 1:
			return keys.Delete(k)
		case 4:
			return keys.AddDelta(k, keys.Value(1+r.Intn(9)))
		case 5:
			return keys.SetIfAbsent(k, keys.Value(r.Intn(1000)))
		default:
			return keys.Search(k)
		}
	}
	gen := func(n int, rmw bool, key func(i int) keys.Key) []keys.Query {
		qs := make([]keys.Query, n)
		for i := range qs {
			qs[i] = op(key(i), rmw)
		}
		return keys.Number(qs)
	}
	narrow := func(int) keys.Key { return keys.Key(r.Intn(64)) }
	zipf := rand.NewZipf(r, 1.1, 1, 1<<16)
	perm := r.Perm(1000)
	return []batchShape{
		{"empty", nil},
		{"one", gen(1, false, narrow)},
		{"n=255", gen(inlineBatch-1, false, narrow)},
		{"n=256", gen(inlineBatch, false, narrow)},
		{"n=257", gen(inlineBatch+1, false, narrow)},
		{"all-distinct", gen(1000, false, func(i int) keys.Key { return keys.Key(perm[i] * 3) })},
		{"zipf-hot", gen(4000, false, func(int) keys.Key { return keys.Key(zipf.Uint64()) })},
		{"run-longer-than-share", gen(1200, false, func(i int) keys.Key {
			if i%3 != 0 {
				return 7 // two thirds of the batch: above n/P for every P > 1
			}
			return keys.Key(r.Intn(500))
		})},
		{"all-one-key", gen(600, false, func(int) keys.Key { return 9 })},
		{"rmw-runs", gen(2000, true, func(int) keys.Key { return keys.Key(r.Intn(100)) })},
	}
}

// evalSurvivors stands in for the tree: every surviving search or RMW
// gets an answer derived from its key, so both sides of a comparison
// broadcast the same values.
func evalSurvivors(out []keys.Query, rs *keys.ResultSet) {
	for _, q := range out {
		if q.Op == keys.OpSearch || q.Op == keys.OpRMW {
			rs.Set(q.Idx, keys.Value(q.Key)*7+1, q.Key%3 != 0)
		}
	}
}

// TestTransformMatchesSerialQSAT checks the parallel sort-once
// Transform against serial one-pass QSAT over a stably sorted copy, at
// several worker counts: the same reduced sequence, representatives,
// inferred count and (after Broadcast) every answer — and the input
// left stably sorted by (Key, Idx), which the scan overlay relies on.
func TestTransformMatchesSerialQSAT(t *testing.T) {
	shapes := transformShapes()
	for _, p := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			pool := bsp.NewPool(p)
			defer pool.Close()
			tf := NewTransformer(pool) // reused across shapes
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					n := len(sh.qs)
					ref := slices.Clone(sh.qs)
					keys.SortByKey(ref)
					var router Router
					router.Reset(n)
					wantRS := keys.NewResultSet(n)
					e := NewEmitter(&router, wantRS)
					QSATSequence(ref, e)
					evalSurvivors(e.Out, wantRS)
					for _, rep := range e.Reps {
						router.Broadcast(wantRS, rep)
					}

					work := slices.Clone(sh.qs)
					rs := keys.NewResultSet(n)
					out := tf.Transform(work, rs, nil)

					if !slices.Equal(work, ref) || !keys.IsSortedByKey(work) {
						t.Fatal("Transform did not leave its input stably sorted by (Key, Idx)")
					}
					if !slices.Equal(out, e.Out) {
						t.Fatalf("reduced sequence differs: %d queries, serial %d", len(out), len(e.Out))
					}
					gotReps, wantReps := slices.Clone(tf.Reps()), slices.Clone(e.Reps)
					slices.Sort(gotReps)
					slices.Sort(wantReps)
					if !slices.Equal(gotReps, wantReps) {
						t.Fatalf("reps %v, serial %v", gotReps, wantReps)
					}
					if tf.Inferred() != e.Inferred {
						t.Fatalf("inferred %d, serial %d", tf.Inferred(), e.Inferred)
					}
					evalSurvivors(out, rs)
					tf.Broadcast(rs)
					for i := int32(0); i < int32(n); i++ {
						got, gok := rs.Get(i)
						want, wok := wantRS.Get(i)
						if got != want || gok != wok {
							t.Fatalf("answer %d: %+v/%v, serial %+v/%v", i, got, gok, want, wok)
						}
					}
				})
			}
		})
	}
}

// TestTransformSortsOnce pins the transform's shape by the supersteps
// it hands the pool: exactly those of one pool sort of the batch, plus
// one for the QSAT pass. A 16 384-query batch is below the radix
// sort's partitioned size, so that sort runs on the caller and
// dispatches none. The subtest keeps the name it had when the
// transformer could also run a merge sort; the radix sort is the one
// batch sort it keeps.
func TestTransformSortsOnce(t *testing.T) {
	pool := bsp.NewPool(2)
	defer pool.Close()
	r := rand.New(rand.NewSource(5))
	qs := make([]keys.Query, 16384)
	for i := range qs {
		qs[i] = keys.Search(keys.Key(r.Intn(1 << 21)))
	}
	keys.Number(qs)
	t.Run("CompareSort=false", func(t *testing.T) {
		tf := NewTransformer(pool)
		d0 := pool.Dispatched()
		tf.sort(slices.Clone(qs))
		if got := pool.Dispatched() - d0; got != 0 {
			t.Fatalf("sort dispatched %d supersteps, want 0", got)
		}
		d0 = pool.Dispatched()
		tf.Transform(slices.Clone(qs), keys.NewResultSet(len(qs)), nil)
		if got := pool.Dispatched() - d0; got != 1 {
			t.Fatalf("Transform dispatched %d supersteps, want 1 (the QSAT pass)", got)
		}
	})
}
