package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

// SimQSAT below is the "Alternative Solution" discussed in §IV-E:
// instead of reasoning about query semantics symbolically (one-pass
// QSAT), redundancy can be eliminated by *simulating* the query
// evaluations on a different data structure — a scratch hash map —
// and emitting only the queries whose effects survive. The paper notes
// two drawbacks that the ablation benchmarks quantify: every query
// must still be "evaluated" (against the simulation structure), and no
// query can be skipped outright. The Engine always uses one-pass QSAT;
// SimQSAT lives here, with the tests, as an independent reference
// implementation that the QSAT equivalence tests and fuzzer check the
// one-pass QSAT against.

// simState is the simulated per-key state.
type simState struct {
	// def is the surviving defining query for the key (valid when
	// hasDef). It is updated in place as later defines overwrite it.
	def    keys.Query
	hasDef bool
	// rep is the surviving representative search (valid when hasRep);
	// only searches that precede every define survive.
	rep    int32
	hasRep bool
	// survivors holds RMW queries over unknown pre-batch state (their
	// results need the tree) and searches that follow them (tagged
	// LeafAnswer), in arrival order. While unknownPresent and !hasDef
	// the key is present but its value is unknown.
	survivors      []keys.Query
	unknownPresent bool
}

// SimQSAT eliminates redundant and unnecessary queries by simulating
// the batch on a hash map, producing the same reduced semantics as the
// symbolic QSAT: per key at most one representative search (answered
// from the tree later, broadcast through router) and one defining
// query, with all other searches answered by inference. The input
// need NOT be sorted — the simulation structure provides random
// access — which is the approach's one advantage; the output is
// emitted in first-touch key order and then must be sorted by the
// caller before PALM processing.
func SimQSAT(qs []keys.Query, router *Router, rs *keys.ResultSet) (out []keys.Query, reps []int32, inferred int) {
	sim := make(map[keys.Key]*simState, len(qs)/2)
	order := make([]keys.Key, 0, len(qs)/2)

	for _, q := range qs {
		st, ok := sim[q.Key]
		if !ok {
			st = &simState{}
			sim[q.Key] = st
			order = append(order, q.Key)
		}
		switch q.Op {
		case keys.OpSearch:
			if st.hasDef {
				// Simulated evaluation answers the search immediately.
				if st.def.Op == keys.OpInsert {
					inferred += router.Resolve(rs, q.Idx, st.def.Value, true)
				} else {
					inferred += router.Resolve(rs, q.Idx, 0, false)
				}
				continue
			}
			if st.unknownPresent {
				// A surviving RMW precedes this search: the key is
				// present but its value needs the tree. Stage 2 answers
				// it at the leaf after applying that RMW.
				q.LeafAnswer = true
				st.survivors = append(st.survivors, q)
				continue
			}
			if st.hasRep {
				router.Append(st.rep, q.Idx)
			} else {
				st.rep, st.hasRep = q.Idx, true
			}
		case keys.OpRMW:
			if st.hasDef {
				// Known simulated state: resolve the result and fold
				// the transform into the surviving define.
				if st.def.Op == keys.OpInsert {
					inferred += router.Resolve(rs, q.Idx, st.def.Value, true)
					if q.RMW == keys.RMWAdd {
						st.def.Value += q.Value
					}
				} else {
					inferred += router.Resolve(rs, q.Idx, 0, false)
					st.def = keys.Query{Op: keys.OpInsert, Key: q.Key, Value: q.Value, Idx: q.Idx}
				}
				continue
			}
			// Unknown pre-batch state: the RMW survives. Both kinds
			// leave the key present afterwards.
			st.survivors = append(st.survivors, q)
			st.unknownPresent = true
		default:
			st.def, st.hasDef = q, true
		}
	}

	for _, k := range order {
		st := sim[k]
		if st.hasRep {
			out = append(out, keys.Query{Op: keys.OpSearch, Key: k, Idx: st.rep})
			reps = append(reps, st.rep)
		}
		out = append(out, st.survivors...)
		if st.hasDef {
			out = append(out, st.def)
		}
	}
	return out, reps, inferred
}

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
