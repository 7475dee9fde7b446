package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/keys"
)

func TestRouterChains(t *testing.T) {
	var r Router
	r.Reset(6)
	r.Append(0, 2)
	r.Append(0, 4)
	if got := r.ChainLen(0); got != 2 {
		t.Fatalf("ChainLen = %d, want 2", got)
	}
	rs := keys.NewResultSet(6)
	if n := r.Resolve(rs, 0, 77, true); n != 3 {
		t.Fatalf("Resolve wrote %d, want 3", n)
	}
	for _, idx := range []int32{0, 2, 4} {
		res, ok := rs.Get(idx)
		if !ok || !res.Found || res.Value != 77 {
			t.Fatalf("idx %d: %+v, %v", idx, res, ok)
		}
	}
	if _, ok := rs.Get(1); ok {
		t.Fatal("unchained index must not be written")
	}
}

func TestRouterAppendMergesChains(t *testing.T) {
	var r Router
	r.Reset(6)
	r.Append(0, 1) // chain 0: 0->1
	r.Append(2, 3) // chain 2: 2->3
	r.Append(0, 2) // merge: 0->1->2->3
	if got := r.ChainLen(0); got != 3 {
		t.Fatalf("merged ChainLen = %d, want 3", got)
	}
	rs := keys.NewResultSet(6)
	if n := r.Resolve(rs, 0, 5, true); n != 4 {
		t.Fatalf("Resolve wrote %d, want 4", n)
	}
}

func TestRouterBroadcast(t *testing.T) {
	var r Router
	r.Reset(4)
	r.Append(1, 3)
	rs := keys.NewResultSet(4)
	rs.Set(1, 42, true)
	if n := r.Broadcast(rs, 1); n != 1 {
		t.Fatalf("Broadcast wrote %d, want 1", n)
	}
	res, ok := rs.Get(3)
	if !ok || res.Value != 42 || !res.Found {
		t.Fatalf("chained result %+v, %v", res, ok)
	}
}

func TestRouterBroadcastUnanswered(t *testing.T) {
	var r Router
	r.Reset(2)
	r.Append(0, 1)
	rs := keys.NewResultSet(2)
	r.Broadcast(rs, 0) // rep never answered: chain gets not-found
	res, ok := rs.Get(1)
	if !ok || res.Found {
		t.Fatalf("chained result %+v, %v; want recorded not-found", res, ok)
	}
}

// runQSATSeq is a helper running sequential one-pass QSAT on a
// key-sorted copy of qs.
func runQSATSeq(qs []keys.Query, rs *keys.ResultSet) (*Emitter, *Router) {
	sorted := append([]keys.Query(nil), qs...)
	keys.SortByKey(sorted)
	router := &Router{}
	router.Reset(len(qs))
	e := NewEmitter(router, rs)
	QSATSequence(sorted, e)
	return e, router
}

func TestQSATRunPaperExample(t *testing.T) {
	qs := paperExample()
	rs := keys.NewResultSet(len(qs))
	e, _ := runQSATSeq(qs, rs)

	// 3 remaining defining queries, 4 inferred returns, no surviving
	// searches (every search had an in-batch define).
	if len(e.Out) != 3 {
		t.Fatalf("Out = %v, want 3 queries", e.Out)
	}
	if e.Inferred != 4 {
		t.Fatalf("Inferred = %d, want 4", e.Inferred)
	}
	if len(e.Reps) != 0 {
		t.Fatalf("Reps = %v, want none", e.Reps)
	}
	checks := []struct {
		idx   int32
		found bool
		v     keys.Value
	}{{1, true, 1}, {3, true, 1}, {7, false, 0}, {8, true, 4}}
	for _, c := range checks {
		res, ok := rs.Get(c.idx)
		if !ok || res.Found != c.found || (c.found && res.Value != c.v) {
			t.Errorf("idx %d: %+v ok=%v, want found=%v v=%d", c.idx, res, ok, c.found, c.v)
		}
	}
	wantOut := []keys.Query{keys.Insert(1, 1), keys.Insert(2, 4), keys.Delete(3)}
	for i, w := range wantOut {
		g := e.Out[i]
		if g.Op != w.Op || g.Key != w.Key || (w.Op == keys.OpInsert && g.Value != w.Value) {
			t.Errorf("Out[%d] = %v, want %v", i, g, w)
		}
	}
}

func TestQSATRunLeadingSearches(t *testing.T) {
	qs := keys.Number([]keys.Query{
		keys.Search(9), keys.Search(9), keys.Search(9), keys.Insert(9, 5),
	})
	rs := keys.NewResultSet(len(qs))
	e, router := runQSATSeq(qs, rs)
	// All three searches precede the define: one representative
	// survives with a chain of two; the insert survives as q_o.
	if len(e.Out) != 2 {
		t.Fatalf("Out = %v, want [S, I]", e.Out)
	}
	if e.Out[0].Op != keys.OpSearch || e.Out[0].Idx != 0 {
		t.Fatalf("representative = %v, want S@0", e.Out[0])
	}
	if e.Out[1].Op != keys.OpInsert {
		t.Fatalf("q_o = %v, want insert", e.Out[1])
	}
	if len(e.Reps) != 1 || e.Reps[0] != 0 {
		t.Fatalf("Reps = %v, want [0]", e.Reps)
	}
	if got := router.ChainLen(0); got != 2 {
		t.Fatalf("chain length = %d, want 2", got)
	}
	// Broadcast delivers the representative's answer to 1 and 2.
	rs.Set(0, 123, true)
	router.Broadcast(rs, 0)
	for _, idx := range []int32{1, 2} {
		res, ok := rs.Get(idx)
		if !ok || res.Value != 123 {
			t.Fatalf("idx %d: %+v", idx, res)
		}
	}
}

func TestQSATRunSearchOnly(t *testing.T) {
	qs := keys.Number([]keys.Query{keys.Search(4), keys.Search(4)})
	rs := keys.NewResultSet(len(qs))
	e, _ := runQSATSeq(qs, rs)
	if len(e.Out) != 1 || e.Out[0].Op != keys.OpSearch {
		t.Fatalf("Out = %v, want single representative search", e.Out)
	}
	if e.Inferred != 0 {
		t.Fatalf("Inferred = %d, want 0", e.Inferred)
	}
}

func TestQSATRunDefinesOnly(t *testing.T) {
	qs := keys.Number([]keys.Query{
		keys.Insert(4, 1), keys.Delete(4), keys.Insert(4, 2),
	})
	rs := keys.NewResultSet(len(qs))
	e, _ := runQSATSeq(qs, rs)
	if len(e.Out) != 1 {
		t.Fatalf("Out = %v, want only q_o", e.Out)
	}
	if e.Out[0].Op != keys.OpInsert || e.Out[0].Value != 2 {
		t.Fatalf("q_o = %v, want I(4,2)", e.Out[0])
	}
}

func TestQSATRunInterleaved(t *testing.T) {
	// S I S S D S I S — checks inference picks the right define.
	qs := keys.Number([]keys.Query{
		keys.Search(1),    // 0: leading → rep
		keys.Insert(1, 7), // 1
		keys.Search(1),    // 2: infer 7
		keys.Search(1),    // 3: infer 7
		keys.Delete(1),    // 4
		keys.Search(1),    // 5: infer null
		keys.Insert(1, 9), // 6: q_o
		keys.Search(1),    // 7: infer 9
	})
	rs := keys.NewResultSet(len(qs))
	e, _ := runQSATSeq(qs, rs)
	if len(e.Out) != 2 {
		t.Fatalf("Out = %v", e.Out)
	}
	if e.Out[0].Idx != 0 || e.Out[1].Value != 9 {
		t.Fatalf("Out = %v, want [S@0, I(1,9)]", e.Out)
	}
	checks := []struct {
		idx   int32
		found bool
		v     keys.Value
	}{{2, true, 7}, {3, true, 7}, {5, false, 0}, {7, true, 9}}
	for _, c := range checks {
		res, ok := rs.Get(c.idx)
		if !ok || res.Found != c.found || (c.found && res.Value != c.v) {
			t.Errorf("idx %d: %+v ok=%v", c.idx, res, ok)
		}
	}
}

// TestOnePassMatchesTwoRound: the one-pass QSAT and the reference
// two-round QSAT agree on inferred answers and on the multiset of
// remaining defining queries for any sequence.
func TestOnePassMatchesTwoRound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		qs := randomSequence(r, 30+r.Intn(150), 1+r.Intn(8))

		rs := keys.NewResultSet(len(qs))
		e, _ := runQSATSeq(qs, rs)

		ops := TwoRoundQSAT(qs)
		wantInferred := map[int32]keys.Result{}
		wantRemaining := map[string]int{}
		for _, op := range ops {
			if op.Return {
				wantInferred[op.Query.Idx] = keys.Result{Value: op.Value, Found: op.Found}
			} else if op.Query.Op.IsDefining() {
				wantRemaining[op.Query.String()]++
			}
		}

		gotRemaining := map[string]int{}
		for _, q := range e.Out {
			if q.Op.IsDefining() {
				gotRemaining[q.String()]++
			}
		}
		if len(gotRemaining) != len(wantRemaining) {
			return false
		}
		for k, v := range wantRemaining {
			if gotRemaining[k] != v {
				return false
			}
		}
		for idx, w := range wantInferred {
			g, ok := rs.Get(idx)
			if !ok || g.Found != w.Found || (w.Found && g.Value != w.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTransformerSerialEquivalence: parallel QTrans followed
// by serial evaluation of the reduced batch plus broadcasts equals
// serial evaluation of the original batch, for any store and batch.
func TestTransformerSerialEquivalence(t *testing.T) {
	pool := bsp.NewPool(4)
	defer pool.Close()
	tf := NewTransformer(pool)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		qs := randomSequence(r, 100+r.Intn(800), 1+r.Intn(12))

		store := map[keys.Key]keys.Value{}
		for i := 0; i < r.Intn(8); i++ {
			store[keys.Key(r.Intn(12))] = keys.Value(r.Intn(100))
		}
		ref := map[keys.Key]keys.Value{}
		for k, v := range store {
			ref[k] = v
		}
		wantRes, _ := EvaluateReference(qs, ref)

		rs := keys.NewResultSet(len(qs))
		work := append([]keys.Query(nil), qs...)
		remaining := tf.Transform(work, rs, nil)

		// Evaluate the reduced batch serially against the store.
		for _, q := range remaining {
			switch q.Op {
			case keys.OpSearch:
				v, ok := store[q.Key]
				rs.Set(q.Idx, v, ok)
			case keys.OpInsert:
				store[q.Key] = q.Value
			case keys.OpDelete:
				delete(store, q.Key)
			}
		}
		tf.Broadcast(rs)

		for i, w := range wantRes {
			g, ok := rs.Get(int32(i))
			if !ok || g.Found != w.Found || (w.Found && g.Value != w.Value) {
				return false
			}
		}
		if len(store) != len(ref) {
			return false
		}
		for k, v := range ref {
			if store[k] != v {
				return false
			}
		}
		// Reduction invariant: at most one define and one search per key.
		perKey := map[keys.Key][2]int{}
		for _, q := range remaining {
			c := perKey[q.Key]
			if q.Op == keys.OpSearch {
				c[0]++
			} else {
				c[1]++
			}
			perKey[q.Key] = c
			if c[0] > 1 || c[1] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformerEmptyBatch(t *testing.T) {
	pool := bsp.NewPool(2)
	defer pool.Close()
	tf := NewTransformer(pool)
	out := tf.Transform(nil, keys.NewResultSet(0), nil)
	if len(out) != 0 {
		t.Fatalf("Transform(nil) = %v", out)
	}
}

// TestRunAlignedBounds pins the rule that splits the sorted batch
// across QTrans workers: bounds are monotone from 0 to n, never split a
// same-key run, and leave empty chunks only at the end.
func TestRunAlignedBounds(t *testing.T) {
	run := func(ks ...keys.Key) []keys.Query {
		qs := make([]keys.Query, len(ks))
		for i, k := range ks {
			qs[i] = keys.Search(k)
		}
		return keys.Number(qs)
	}
	cases := []struct {
		name string
		qs   []keys.Query
		nw   int
		want []int
	}{
		{"mixed-runs", run(1, 1, 1, 1, 2, 3, 3, 4), 3, []int{0, 4, 5, 8}},
		{"all-keys-equal", run(5, 5, 5, 5, 5, 5, 5, 5, 5, 5), 4, []int{0, 10, 10, 10, 10}},
		{"run-longer-than-share-never-splits", run(1, 2, 2, 2, 2, 2, 2, 3), 2, []int{0, 7, 8}},
		{"long-run-P=4", run(1, 2, 2, 2, 2, 2, 2, 3), 4, []int{0, 7, 8, 8, 8}},
		{"P-above-distinct-keys", run(1, 1, 1, 2, 2, 3), 5, []int{0, 3, 5, 6, 6, 6}},
		{"fewer-queries-than-P", run(1, 2), 4, []int{0, 1, 2, 2, 2}},
		{"empty", nil, 3, []int{0, 0, 0, 0}},
		{"one-worker", run(1, 2, 2), 1, []int{0, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runAlignedBounds(c.qs, make([]int, c.nw+1))
			checkRunAlignedBounds(t, c.qs, got)
			if !slices.Equal(got, c.want) {
				t.Fatalf("bounds = %v, want %v", got, c.want)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(9))
		for iter := 0; iter < 300; iter++ {
			qs := make([]keys.Query, r.Intn(60))
			span := 1 + r.Intn(12)
			for i := range qs {
				qs[i] = keys.Search(keys.Key(r.Intn(span)))
			}
			keys.SortByKey(keys.Number(qs))
			checkRunAlignedBounds(t, qs, runAlignedBounds(qs, make([]int, 2+r.Intn(9))))
		}
	})
}

func checkRunAlignedBounds(t *testing.T, qs []keys.Query, bounds []int) {
	t.Helper()
	n, nw := len(qs), len(bounds)-1
	if bounds[0] != 0 || bounds[nw] != n {
		t.Fatalf("bounds %v do not span [0, %d]", bounds, n)
	}
	for i := 1; i < nw; i++ {
		b := bounds[i]
		if b < bounds[i-1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
		if b > 0 && b < n && qs[b].Key == qs[b-1].Key {
			t.Fatalf("bound %d splits a run: %v", b, bounds)
		}
		if b == bounds[i-1] && b < n {
			t.Fatalf("empty chunk %d before the end: %v", i-1, bounds)
		}
	}
}

func BenchmarkTransform1M(b *testing.B) {
	pool := bsp.NewPool(0)
	defer pool.Close()
	tf := NewTransformer(pool)
	r := rand.New(rand.NewSource(1))
	const n = 1 << 20
	base := make([]keys.Query, n)
	for i := range base {
		// Zipf-ish skew via squaring.
		k := keys.Key(r.Intn(1<<10) * r.Intn(1<<10))
		switch r.Intn(4) {
		case 0:
			base[i] = keys.Insert(k, keys.Value(i))
		case 1:
			base[i] = keys.Delete(k)
		default:
			base[i] = keys.Search(k)
		}
	}
	keys.Number(base)
	work := make([]keys.Query, n)
	rs := keys.NewResultSet(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		rs.Reset(n)
		tf.Transform(work, rs, nil)
	}
	b.SetBytes(n)
}
