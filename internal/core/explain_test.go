package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func TestExplainPaperExample(t *testing.T) {
	r := Explain(paperExample())
	// Fig. 7: 9 queries, 3 distinct keys; q3 and q5 are overwritten
	// (❷), and all 4 searches are answered by inference (❸) — none
	// are leading, so no pure redundancy (❶) in this example.
	if r.Total != 9 || r.DistinctKeys != 3 {
		t.Fatalf("report = %+v", r)
	}
	if r.Overwriting != 2 {
		t.Fatalf("Overwriting = %d, want 2", r.Overwriting)
	}
	if r.Inference != 4 {
		t.Fatalf("Inference = %d, want 4", r.Inference)
	}
	if r.Redundancy != 0 {
		t.Fatalf("Redundancy = %d, want 0", r.Redundancy)
	}
	if r.Surviving != 3 {
		t.Fatalf("Surviving = %d, want 3 (Fig. 7-d)", r.Surviving)
	}
	if r.Eliminated() != 6 {
		t.Fatalf("Eliminated = %d", r.Eliminated())
	}
}

func TestExplainRedundantSearches(t *testing.T) {
	qs := keys.Number([]keys.Query{
		keys.Search(1), keys.Search(1), keys.Search(1), // ❶: 2 collapse
		keys.Insert(1, 5), // survives
		keys.Search(1),    // ❸
	})
	r := Explain(qs)
	if r.Redundancy != 2 || r.Inference != 1 || r.Overwriting != 0 || r.Surviving != 2 {
		t.Fatalf("report = %+v", r)
	}
}

func TestExplainEmpty(t *testing.T) {
	r := Explain(nil)
	if r.Total != 0 || r.ReductionRatio() != 0 || r.Eliminated() != 0 {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestExplainString(t *testing.T) {
	s := Explain(paperExample()).String()
	for _, want := range []string{"9 queries", "3 distinct", "6 eliminated", "66.7%", "3 survive"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: Explain's surviving count equals the one-pass QSAT's
// actual surviving query count, and Total = Surviving + Eliminated.
func TestExplainMatchesQSAT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		qs := randomSequence(r, 20+r.Intn(300), 1+r.Intn(12))
		rep := Explain(qs)
		if rep.Total != rep.Surviving+rep.Eliminated() {
			return false
		}
		rs := keys.NewResultSet(len(qs))
		e, _ := runQSATSeq(qs, rs)
		return rep.Surviving == len(e.Out) && rep.Inference+rep.Redundancy == e.Inferred+routerChains(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// routerChains totals the chain lengths behind surviving
// representatives (the collapsed redundant searches).
func routerChains(e *Emitter) int {
	n := 0
	for _, rep := range e.Reps {
		n += e.router.ChainLen(rep)
	}
	return n
}

// TestExplainGateVerdict checks Explain reports the duplicate share the
// Adaptive gate measures and its verdict, and that the engine's gate
// takes the same decision on the same batch once its cache mode is off.
func TestExplainGateVerdict(t *testing.T) {
	distinct := make([]keys.Query, 512)
	hot := make([]keys.Query, 512)
	for i := range distinct {
		distinct[i] = keys.Search(keys.Key(i))
		hot[i] = keys.Search(keys.Key(i % 4))
	}
	keys.Number(distinct)
	keys.Number(hot)
	withScan := keys.Number(append(append([]keys.Query(nil), hot[:8]...), keys.Scan(0, 9, 0)))
	for _, c := range []struct {
		name  string
		qs    []keys.Query
		share float64
		skips bool
	}{
		{"distinct", distinct, 0, true},
		{"hot", hot, 1 - 4.0/512, false},
		{"scan excluded", withScan, 0.5, true},
	} {
		r := Explain(c.qs)
		if r.DuplicateShare != c.share || r.SkipsQSAT != c.skips {
			t.Errorf("%s: share %v skips %v, want %v %v", c.name, r.DuplicateShare, r.SkipsQSAT, c.share, c.skips)
		}
	}

	eng, err := NewEngine(EngineConfig{Mode: Adaptive, CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, qs := range [][]keys.Query{distinct, distinct, hot, distinct} {
		want := Explain(qs).SkipsQSAT
		eng.ProcessBatch(append([]keys.Query(nil), qs...), keys.NewResultSet(len(qs)))
		if st := eng.Stats(); st.CacheOn == 0 && (st.QSATSkipped == 1) != want {
			t.Errorf("engine skipped=%d with the cache off, Explain says %v", st.QSATSkipped, want)
		}
	}
}
