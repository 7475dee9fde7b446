package qtrans

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// composition is one legal-or-rejected arrangement of the engine
// layers behind the facade.
type composition struct {
	shards    int
	pipelined bool // Options.Pipeline + RunStream instead of serial Run
	durable   bool
	tiered    bool
	autoshard bool
}

func (c composition) name() string {
	pick := func(on bool, yes, no string) string {
		if on {
			return yes
		}
		return no
	}
	return fmt.Sprintf("shards%d_%s_%s_%s_%s", c.shards,
		pick(c.pipelined, "pipelined", "serial"),
		pick(c.durable, "durable", "memory"),
		pick(c.tiered, "tiered", "untiered"),
		pick(c.autoshard, "autoshard", "static"))
}

// options builds the composition's Options over fs: the tierOpts
// sizing (256-key space, 32-key resident budget) for every arm, so the
// tiered arms demote within the stream.
func (c composition) options(fs *faultfs.FS) Options {
	o := tierOpts(fs)
	o.Shards = c.shards
	o.ShardKeyMax = 255
	o.Pipeline = c.pipelined
	if !c.tiered {
		o.Tiered = Tiered{}
	}
	if c.durable {
		o.Durability = Durability{Dir: "dur", fs: fs}
	}
	if c.autoshard {
		o.Autoshard = aggressiveAutoshard()
	}
	return o
}

// composeStream is the seeded op stream every composition runs: all
// six operations over a 256-key space, with most traffic in a window
// that drifts across it so autoshard sees skew and the tier sees cold
// ranges go hot again. Every other batch holds point ops only: a scan
// or RMW batch drains the top-K cache, so only point batches leave
// dirty cache entries for the next batch, snapshot, or demotion.
func composeStream() [][]keys.Query {
	const batches, perBatch = 48, 32
	r := rand.New(rand.NewSource(31))
	stream := make([][]keys.Query, batches)
	for b := range stream {
		ops := 100
		if b%2 == 1 {
			ops = 65 // Search, Insert, Delete
		}
		qs := make([]keys.Query, perBatch)
		for i := range qs {
			k := keys.Key((b*5 + r.Intn(48)) % 256)
			if r.Intn(5) == 0 {
				k = keys.Key(r.Intn(256))
			}
			v := keys.Value(r.Intn(1000))
			switch p := r.Intn(ops); {
			case p < 30:
				qs[i] = keys.Search(k)
			case p < 55:
				qs[i] = keys.Insert(k, v)
			case p < 65:
				qs[i] = keys.Delete(k)
			case p < 70:
				qs[i] = keys.Scan(k, k+keys.Key(1+r.Intn(48)), 0)
			case p < 75:
				qs[i] = keys.Scan(k, k+keys.Key(1+r.Intn(96)), keys.Value(1+r.Intn(8)))
			case p < 88:
				qs[i] = keys.AddDelta(k, v)
			default:
				qs[i] = keys.SetIfAbsent(k, v)
			}
		}
		stream[b] = keys.Number(qs)
	}
	return stream
}

// checkBatch compares every search, RMW, and scan answer of one batch
// against the oracle's.
func checkBatch(res *Results, qs []keys.Query, want *keys.ResultSet) error {
	for i, q := range qs {
		switch q.Op {
		case keys.OpScan:
			got, ok := res.Scan(i)
			exp, _ := want.ScanRows(int32(i))
			if !ok || !slices.Equal(got, exp) {
				return fmt.Errorf("pos %d %v: rows %v (ok=%v), oracle %v", i, q, got, ok, exp)
			}
		case keys.OpSearch, keys.OpRMW:
			got, ok := res.Search(i)
			exp, _ := want.Get(int32(i))
			if !ok || got != exp {
				return fmt.Errorf("pos %d %v: %+v (ok=%v), oracle %+v", i, q, got, ok, exp)
			}
		}
	}
	return nil
}

// checkStore compares the DB's whole contents against the oracle's.
func checkStore(db *DB, o *oracle.Oracle) error {
	wantKs, wantVs := o.Dump()
	gotKs, gotVs := dump(db)
	if !slices.Equal(gotKs, wantKs) || !slices.Equal(gotVs, wantVs) {
		return fmt.Errorf("store has %d pairs, oracle %d (or values differ)", len(gotKs), len(wantKs))
	}
	if n := db.Len(); n != len(wantKs) {
		return fmt.Errorf("Len = %d, oracle %d", n, len(wantKs))
	}
	return db.Err()
}

// TestCompositionMatrix runs one seeded op stream through every
// composition of {1, 4 shards} × {serial, pipelined} × {memory,
// durable} × {tiered off, on} × {autoshard off, on} and checks every
// answer against the oracle. Durable arms checkpoint mid-stream and are
// re-verified after each of two reopens; autoshard on one shard must be
// refused at Open.
func TestCompositionMatrix(t *testing.T) {
	stream := composeStream()
	o := oracle.New()
	want := make([]*keys.ResultSet, len(stream))
	for b, qs := range stream {
		want[b] = keys.NewResultSet(len(qs))
		o.ApplyAll(qs, want[b])
	}

	for _, shards := range []int{1, 4} {
		for _, pipelined := range []bool{false, true} {
			for _, durable := range []bool{false, true} {
				for _, tiered := range []bool{false, true} {
					for _, autoshard := range []bool{false, true} {
						c := composition{shards, pipelined, durable, tiered, autoshard}
						t.Run(c.name(), func(t *testing.T) {
							runComposition(t, c, stream, want, o)
						})
					}
				}
			}
		}
	}
}

func runComposition(t *testing.T, c composition, stream [][]keys.Query, want []*keys.ResultSet, o *oracle.Oracle) {
	fs := faultfs.New()
	opts := c.options(fs)
	db, err := Open(opts)
	if c.autoshard && c.shards == 1 {
		if !errors.Is(err, ErrAutoshardUnsharded) {
			t.Fatalf("Open = %v, want ErrAutoshardUnsharded", err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	driveComposition(t, c, db, stream, want, o)
	if !c.durable {
		return
	}
	// Reopen twice: first from the mid-stream snapshot plus the logged
	// tail, then from a snapshot of the recovered state alone. The
	// checkpoint comes before the check, whose Scan flushes the caches:
	// replay leaves dirty cache entries the snapshot must capture.
	for _, step := range []string{"log replay", "snapshot"} {
		re, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen (%s): %v", step, err)
		}
		err = re.Checkpoint()
		if err == nil {
			err = checkStore(re, o)
		}
		re.Close()
		if err != nil {
			t.Fatalf("after reopen (%s): %v", step, err)
		}
	}
}

// driveComposition runs the stream through db, checking every batch and
// the final store against the oracle, and closes db.
func driveComposition(t *testing.T, c composition, db *DB, stream [][]keys.Query, want []*keys.ResultSet, o *oracle.Oracle) {
	defer db.Close()
	// between runs after each batch: an autoshard step, and a
	// checkpoint halfway through a durable stream.
	between := func(b int) error {
		if c.autoshard {
			db.AutoshardStep()
		}
		if c.durable && b == len(stream)/2 {
			return db.Checkpoint()
		}
		return nil
	}
	batch := func(b int) *Batch { return &Batch{qs: slices.Clone(stream[b])} }

	if c.pipelined {
		// The producer runs the between-batch work: the controller and
		// Checkpoint wait at the gate for the batches in flight.
		in := make(chan *Batch)
		prodErr := make(chan error, 1)
		go func() {
			defer close(in)
			for b := range stream {
				in <- batch(b)
				if err := between(b); err != nil {
					prodErr <- err
					return
				}
			}
			prodErr <- nil
		}()
		emitted := 0
		var firstErr error
		db.RunStream(in, func(_ *Batch, res *Results) {
			if firstErr == nil {
				if err := checkBatch(res, stream[emitted], want[emitted]); err != nil {
					firstErr = fmt.Errorf("batch %d: %w", emitted, err)
				}
			}
			emitted++
		})
		if err := <-prodErr; err != nil {
			t.Fatal(err)
		}
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		if emitted != len(stream) {
			t.Fatalf("emitted %d of %d batches", emitted, len(stream))
		}
	} else {
		for b := range stream {
			if err := checkBatch(db.Run(batch(b)), stream[b], want[b]); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			if err := between(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := checkStore(db, o); err != nil {
		t.Fatal(err)
	}
	if c.tiered {
		if st, _ := db.TierStats(); st.Demotions == 0 {
			t.Fatalf("tiered arm never demoted: %+v", st)
		}
	}
	if c.autoshard {
		if st := db.ShardStats(); st.Moves == 0 {
			t.Fatalf("controller never acted: %+v", st)
		}
	}
}
