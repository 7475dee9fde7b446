package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func TestSimQSATPaperExample(t *testing.T) {
	qs := paperExample()
	var router Router
	router.Reset(len(qs))
	rs := keys.NewResultSet(len(qs))
	out, reps, inferred := SimQSAT(qs, &router, rs)
	if inferred != 4 {
		t.Fatalf("inferred = %d, want 4", inferred)
	}
	if len(out) != 3 {
		t.Fatalf("out = %v, want 3 defines", out)
	}
	if len(reps) != 0 {
		t.Fatalf("reps = %v, want none", reps)
	}
	checks := []struct {
		idx   int32
		found bool
		v     keys.Value
	}{{1, true, 1}, {3, true, 1}, {7, false, 0}, {8, true, 4}}
	for _, c := range checks {
		res, ok := rs.Get(c.idx)
		if !ok || res.Found != c.found || (c.found && res.Value != c.v) {
			t.Errorf("idx %d: %+v, %v", c.idx, res, ok)
		}
	}
}

func TestSimQSATUnsortedInput(t *testing.T) {
	// SimQSAT's selling point: no pre-sort needed. Same sequence,
	// scrambled key order, same per-key semantics.
	qs := keys.Number([]keys.Query{
		keys.Search(9),
		keys.Insert(1, 5),
		keys.Search(1),
		keys.Insert(9, 7),
		keys.Search(9),
	})
	var router Router
	router.Reset(len(qs))
	rs := keys.NewResultSet(len(qs))
	out, reps, inferred := SimQSAT(qs, &router, rs)
	if inferred != 2 {
		t.Fatalf("inferred = %d, want 2 (searches after defines)", inferred)
	}
	// Key 9's leading search survives; both defines survive.
	if len(out) != 3 || len(reps) != 1 || reps[0] != 0 {
		t.Fatalf("out=%v reps=%v", out, reps)
	}
	if r, _ := rs.Get(2); !r.Found || r.Value != 5 {
		t.Fatalf("S(1) = %+v", r)
	}
	if r, _ := rs.Get(4); !r.Found || r.Value != 7 {
		t.Fatalf("S(9) = %+v", r)
	}
}

// TestSimQSATMatchesOnePass: the simulation-based and symbolic QSAT
// must produce equivalent reduced semantics for any sequence.
func TestSimQSATMatchesOnePass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		qs := randomSequence(r, 30+r.Intn(200), 1+r.Intn(10))

		// Simulation path.
		var simRouter Router
		simRouter.Reset(len(qs))
		simRS := keys.NewResultSet(len(qs))
		simOut, _, _ := SimQSAT(qs, &simRouter, simRS)

		// Symbolic path.
		rs := keys.NewResultSet(len(qs))
		e, _ := runQSATSeq(qs, rs)

		// Same surviving defines (order-insensitive compare).
		simDefs := map[string]int{}
		for _, q := range simOut {
			if q.Op.IsDefining() {
				simDefs[q.String()]++
			}
		}
		symDefs := map[string]int{}
		for _, q := range e.Out {
			if q.Op.IsDefining() {
				symDefs[q.String()]++
			}
		}
		if len(simDefs) != len(symDefs) {
			return false
		}
		for k, v := range symDefs {
			if simDefs[k] != v {
				return false
			}
		}
		// Same inferred answers.
		for i := int32(0); i < int32(len(qs)); i++ {
			a, aok := simRS.Get(i)
			b, bok := rs.Get(i)
			if aok != bok || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAblationSimQSAT(b *testing.B) {
	base := ablationBatch(1 << 16)
	var router Router
	rs := keys.NewResultSet(len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router.Reset(len(base))
		rs.Reset(len(base))
		SimQSAT(base, &router, rs)
	}
}
