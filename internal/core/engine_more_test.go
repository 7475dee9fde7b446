package core

import (
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
	"repro/internal/palm"
)

func TestNewEngineWithTree(t *testing.T) {
	const n = 10000
	ks := make([]keys.Key, n)
	vs := make([]keys.Value, n)
	for i := range ks {
		ks[i] = keys.Key(i * 3)
		vs[i] = keys.Value(i)
	}
	tree, err := btree.BulkLoad(32, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithTree(EngineConfig{
		Mode: Intra,
		Palm: palm.Config{Order: 32, Workers: 3, LoadBalance: true},
	}, tree)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	batch := keys.Number([]keys.Query{
		keys.Search(300), // present (100th pair)
		keys.Search(301), // absent
		keys.Insert(301, 9),
		keys.Search(301), // inferred 9
	})
	rs := keys.NewResultSet(len(batch))
	eng.ProcessBatch(batch, rs)
	if r, _ := rs.Get(0); !r.Found || r.Value != 100 {
		t.Fatalf("Search(300) = %+v", r)
	}
	if r, _ := rs.Get(1); r.Found {
		t.Fatalf("Search(301) = %+v", r)
	}
	if r, _ := rs.Get(3); !r.Found || r.Value != 9 {
		t.Fatalf("inferred Search(301) = %+v", r)
	}
	if err := eng.Processor().Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
}

func TestNewEngineWithTreeNil(t *testing.T) {
	if _, err := NewEngineWithTree(EngineConfig{Palm: palm.Config{Workers: 1}}, nil); err == nil {
		t.Fatal("nil tree accepted")
	}
}

func TestNewEngineRejectsBadOrder(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Palm: palm.Config{Order: 2, Workers: 1}}); err == nil {
		t.Fatal("order 2 accepted")
	}
}

// TestEngineLongRunChurn runs many batches over a small keyspace with
// the cache enabled, cross-checking the oracle at every batch; this
// soaks the eviction/readmission/flush machinery far longer than the
// unit tests.
func TestEngineLongRunChurn(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Mode:          IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 3, LoadBalance: true},
		CacheCapacity: 16, // tiny: constant churn
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	o := oracle.New()
	r := rand.New(rand.NewSource(99))
	for b := 0; b < 40; b++ {
		n := 300 + r.Intn(500)
		batch := make([]keys.Query, n)
		for i := range batch {
			k := keys.Key(r.Intn(64))
			switch r.Intn(3) {
			case 0:
				batch[i] = keys.Search(k)
			case 1:
				batch[i] = keys.Insert(k, keys.Value(r.Uint32()))
			default:
				batch[i] = keys.Delete(k)
			}
		}
		keys.Number(batch)
		want := keys.NewResultSet(n)
		o.ApplyAll(batch, want)
		got := keys.NewResultSet(n)
		eng.ProcessBatch(batch, got)
		for i := int32(0); i < int32(n); i++ {
			w, wok := want.Get(i)
			g, gok := got.Get(i)
			if wok != gok || w != g {
				t.Fatalf("batch %d idx %d: %+v(%v) vs %+v(%v)", b, i, g, gok, w, wok)
			}
		}
	}
	eng.Flush()
	gk, gv := eng.Processor().Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("final sizes %d vs %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("final mismatch at %d", i)
		}
	}
}

// TestEngineInterleavedModesShareNothing: separate engines must not
// interfere through package state (a regression guard for scratch
// reuse bugs).
func TestEngineInterleavedModesShareNothing(t *testing.T) {
	mk := func(mode Mode) *Engine {
		eng, err := NewEngine(EngineConfig{
			Mode:          mode,
			Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
			CacheCapacity: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	engines := []*Engine{mk(Original), mk(Intra), mk(IntraInter)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	r := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		for _, eng := range engines {
			batch := make([]keys.Query, 200)
			for i := range batch {
				batch[i] = keys.Insert(keys.Key(r.Intn(100)), keys.Value(round))
			}
			keys.Number(batch)
			eng.ProcessBatch(batch, keys.NewResultSet(len(batch)))
		}
	}
	for _, eng := range engines {
		eng.Flush()
		if err := eng.Processor().Tree().Validate(btree.RelaxedFill); err != nil {
			t.Fatalf("mode %v: %v", eng.Mode(), err)
		}
	}
}
