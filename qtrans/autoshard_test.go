package qtrans

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// aggressiveAutoshard makes boundary moves fire within a short test:
// a fine histogram, no idle floor, tiny migration slices.
func aggressiveAutoshard() Autoshard {
	return Autoshard{
		Enabled:  true,
		Interval: -1, // manual stepping
		Buckets:  16,
		MaxStep:  32,
		MinHeat:  1,
	}
}

// scanBatch appends range scans that straddle every plausible shard
// boundary for the keys mixedBatch touches.
func scanBatch(round int) *Batch {
	b := mixedBatch(round)
	base := Key(round * 100)
	b.Scan(0, base+100, 0)
	b.Scan(base/2, base+50, 16)
	return b
}

// TestAutoshardOnIdenticalResults is the facade-level differential half
// of the autoshard contract: a DB that migrates keys under an
// aggressive controller must stay byte-identical — point
// results and scan rows — to an identical DB with the controller off.
func TestAutoshardOnIdenticalResults(t *testing.T) {
	base := Options{Order: 8, Workers: 2, CacheCapacity: 16, Shards: 4, ShardKeyMax: 4095}
	plain, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	withAuto := base
	withAuto.Autoshard = aggressiveAutoshard()
	auto, err := Open(withAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()

	for round := 0; round < 12; round++ {
		bp, ba := scanBatch(round), scanBatch(round)
		n := bp.Len()
		rp, ra := plain.Run(bp), auto.Run(ba)
		for pos := 0; pos < n; pos++ {
			gp, okp := rp.Search(pos)
			ga, oka := ra.Search(pos)
			if gp != ga || okp != oka {
				t.Fatalf("round %d pos %d: plain (%+v,%v) != auto (%+v,%v)",
					round, pos, gp, okp, ga, oka)
			}
			sp, okp := rp.Scan(pos)
			sa, oka := ra.Scan(pos)
			if okp != oka || len(sp) != len(sa) {
				t.Fatalf("round %d pos %d: scan shape diverged (%d,%v vs %d,%v)",
					round, pos, len(sp), okp, len(sa), oka)
			}
			for j := range sp {
				if sp[j] != sa[j] {
					t.Fatalf("round %d pos %d row %d: %+v != %+v", round, pos, j, sp[j], sa[j])
				}
			}
		}
		// Two controller steps per round: mixedBatch concentrates each
		// round's traffic on one narrow key range, so boundary moves
		// fire constantly at these thresholds.
		auto.AutoshardStep()
		auto.AutoshardStep()
	}
	if plain.Len() != auto.Len() {
		t.Fatalf("store size diverged: plain %d, auto %d", plain.Len(), auto.Len())
	}
	// The controller must actually have done something, or the test
	// proves nothing.
	st := auto.ShardStats()
	if st.Moves == 0 {
		t.Fatalf("controller never acted: %+v", st)
	}
}

// TestAutoshardStepUnsharded pins the facade edge: stepping an
// unsharded DB is a harmless no-op returning the zero report.
func TestAutoshardStepUnsharded(t *testing.T) {
	db, err := Open(Options{Order: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if r := db.AutoshardStep(); r != (shard.AutoshardReport{}) {
		t.Fatalf("unsharded step = %+v, want the zero report", r)
	}
}

// TestAutoshardMetricsExported drives the exporter end to end: after
// batches and controller steps, /metrics (JSON and text) must carry the
// autoshard family — imbalance, per-shard heat gauges, and the step
// counter.
func TestAutoshardMetricsExported(t *testing.T) {
	opts := Options{
		Order: 8, Workers: 2, CacheCapacity: 16,
		Shards: 2, ShardKeyMax: 4095,
		Metrics:   NewMetrics(),
		Autoshard: aggressiveAutoshard(),
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for round := 0; round < 4; round++ {
		db.Run(mixedBatch(round))
		db.AutoshardStep()
	}

	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics did not decode: %v", err)
	}
	if _, ok := snap.Gauges["autoshard_imbalance_permille"]; !ok {
		t.Error("autoshard_imbalance_permille gauge missing")
	}
	if got := snap.Counters["autoshard_steps_total"]; got != 4 {
		t.Errorf("autoshard_steps_total = %d, want 4", got)
	}
	for _, name := range []string{"autoshard_heat_shard_0", "autoshard_heat_shard_1"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("per-shard heat gauge %s missing", name)
		}
	}

	// The text table renders the same families for humans.
	resp, err = http.Get(srv.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{"autoshard_imbalance_permille", "autoshard_heat_shard_0", "autoshard_steps_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("text exporter missing %q:\n%s", want, text)
		}
	}
}

// TestAutoshardRaceHammer runs the background controller at a 1ms tick
// against live batch traffic, streamed batches, snapshot Saves, and
// metrics scrapes — the gate choreography (batches share-lock,
// controller/Save exclusive-lock) must survive the race detector, and
// the final store must match an identical unsharded DB fed the same
// rounds.
func TestAutoshardRaceHammer(t *testing.T) {
	auto := aggressiveAutoshard()
	auto.Interval = time.Millisecond // background loop on
	db, err := Open(Options{
		Order: 8, Workers: 2, CacheCapacity: 16,
		Shards: 3, ShardKeyMax: 4095,
		Metrics:   NewMetrics(),
		Autoshard: auto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()

	const rounds = 60
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Periodic Saves race the controller for the exclusive gate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.Save(io.Discard); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}
	}()
	// Metrics scrapes and read-only accessors ride along.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				resp.Body.Close()
				db.Len()
			}
		}
	}()

	// The single batch runner: plain runs, then a streamed phase.
	for round := 0; round < rounds/2; round++ {
		db.Run(mixedBatch(round))
	}
	in := make(chan *Batch)
	go func() {
		for round := rounds / 2; round < rounds; round++ {
			in <- mixedBatch(round)
		}
		close(in)
	}()
	streamed := 0
	db.RunStream(in, func(b *Batch, r *Results) { streamed++ })
	close(stop)
	wg.Wait()
	if streamed != rounds/2 {
		t.Fatalf("streamed %d batches, want %d", streamed, rounds/2)
	}

	// Differential close: same rounds through a plain unsharded DB.
	ref, err := Open(Options{Order: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for round := 0; round < rounds; round++ {
		ref.Run(mixedBatch(round))
	}
	if db.Len() != ref.Len() {
		t.Fatalf("store size diverged: hammered %d, reference %d", db.Len(), ref.Len())
	}
	type kv struct {
		k Key
		v Value
	}
	var got, want []kv
	db.Scan(func(k Key, v Value) bool { got = append(got, kv{k, v}); return true })
	ref.Scan(func(k Key, v Value) bool { want = append(want, kv{k, v}); return true })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("store[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
