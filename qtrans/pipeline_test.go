package qtrans

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/oracle"
)

// TestRunStreamMatchesRun: RunStream (pipelined and serial) produces
// the same per-batch results and the same final store as batch-at-a-
// time Run on a second DB.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, opt := range []Optimization{None, IntraBatch, Full} {
		for _, pipelined := range []bool{false, true} {
			stream, err := Open(Options{Order: 8, Workers: 3, Optimization: opt, CacheCapacity: 64, Pipeline: pipelined})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Open(Options{Order: 8, Workers: 3, Optimization: opt, CacheCapacity: 64})
			if err != nil {
				t.Fatal(err)
			}

			r := rand.New(rand.NewSource(int64(opt)*2 + 5))
			const nBatches = 12
			mkBatch := func() (*Batch, *Batch) {
				a, b := NewBatch(), NewBatch()
				for i := 0; i < 200; i++ {
					k := Key(r.Intn(64))
					switch r.Intn(3) {
					case 0:
						a.Search(k)
						b.Search(k)
					case 1:
						v := Value(r.Intn(1000))
						a.Insert(k, v)
						b.Insert(k, v)
					default:
						a.Delete(k)
						b.Delete(k)
					}
				}
				return a, b
			}

			streamBatches := make([]*Batch, nBatches)
			serialBatches := make([]*Batch, nBatches)
			for i := range streamBatches {
				streamBatches[i], serialBatches[i] = mkBatch()
			}

			in := make(chan *Batch)
			go func() {
				for _, b := range streamBatches {
					in <- b
				}
				close(in)
			}()
			bi := 0
			stream.RunStream(in, func(b *Batch, res *Results) {
				want := serial.Run(serialBatches[bi])
				for pos := 0; pos < 200; pos++ {
					w, wok := want.Search(pos)
					g, gok := res.Search(pos)
					if wok != gok || w != g {
						t.Fatalf("opt=%d pipeline=%v batch %d pos %d: got %+v (%v), want %+v (%v)",
							int(opt), pipelined, bi, pos, g, gok, w, wok)
					}
				}
				bi++
			})
			if bi != nBatches {
				t.Fatalf("opt=%v pipeline=%v: emitted %d of %d", opt, pipelined, bi, nBatches)
			}

			if sl, rl := stream.Len(), serial.Len(); sl != rl {
				t.Fatalf("opt=%v pipeline=%v: final Len %d vs %d", opt, pipelined, sl, rl)
			}
			stream.Close()
			serial.Close()
		}
	}
}

// TestRunStreamConcurrentProducers hammers one pipelined RunStream with
// several producer goroutines sharing the input channel (run under
// -race in CI). Each producer owns a disjoint key range; channel
// semantics keep each producer's batches in its submission order, so a
// per-producer oracle predicts every result even though producers
// interleave arbitrarily.
func TestRunStreamConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 10
		span      = 100 // keys per producer
		batchLen  = 120
	)
	db, err := Open(Options{Order: 8, Workers: 3, CacheCapacity: 32, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	in := make(chan *Batch)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(p) + 1))
			base := p * span
			for b := 0; b < perProd; b++ {
				batch := NewBatch()
				for i := 0; i < batchLen; i++ {
					k := Key(base + r.Intn(span))
					switch r.Intn(3) {
					case 0:
						batch.Search(k)
					case 1:
						batch.Insert(k, Value(r.Intn(10000)))
					default:
						batch.Delete(k)
					}
				}
				in <- batch
			}
		}(p)
	}
	go func() {
		wg.Wait()
		close(in)
	}()

	oracles := make([]*oracle.Oracle, producers)
	for i := range oracles {
		oracles[i] = oracle.New()
	}
	seen := 0
	db.RunStream(in, func(b *Batch, res *Results) {
		// Every key in a batch belongs to one producer's range.
		p := int(b.qs[0].Key) / span
		want := keys.NewResultSet(len(b.qs))
		oracles[p].ApplyAll(b.qs, want)
		for i := int32(0); i < int32(len(b.qs)); i++ {
			w, wok := want.Get(i)
			g, gok := res.rs.Get(i)
			if wok != gok || w != g {
				t.Errorf("producer %d batch: idx %d got %+v (%v), want %+v (%v)", p, i, g, gok, w, wok)
			}
		}
		seen++
	})
	if seen != producers*perProd {
		t.Fatalf("emitted %d of %d batches", seen, producers*perProd)
	}

	// Final store equals the union of the per-producer oracles.
	want := make(map[Key]Value)
	for _, o := range oracles {
		ks, vs := o.Dump()
		for i := range ks {
			want[ks[i]] = vs[i]
		}
	}
	got := make(map[Key]Value)
	db.Scan(func(k Key, v Value) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("final store: %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("final store[%d] = %d, want %d", k, got[k], v)
		}
	}
}

// TestServePipelined runs the online Service over a pipelined DB with
// concurrent clients on disjoint keys (run under -race in CI).
func TestServePipelined(t *testing.T) {
	db, err := Open(Options{Order: 8, Workers: 2, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc := db.Serve(ServiceOptions{MaxBatch: 64})

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := Key(c * 1000)
			for i := 0; i < 200; i++ {
				k := base + Key(i)
				if err := svc.Put(k, Value(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				v, found, err := svc.Get(k)
				if err != nil || !found || v != Value(i) {
					t.Errorf("Get(%d) = %d,%v,%v; want %d", k, v, found, err, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	svc.Close()

	if n := db.Len(); n != 4*200 {
		t.Fatalf("Len = %d, want %d", n, 4*200)
	}
}
