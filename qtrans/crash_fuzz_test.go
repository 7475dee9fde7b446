package qtrans

import (
	"runtime"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// FuzzCrashRecovery is the durability proof (DESIGN.md §7): it runs a
// fuzzer-chosen workload against a durable DB over the fault-injecting
// filesystem, kills the "machine" at an arbitrary write offset (losing
// an arbitrary unsynced suffix per file), recovers, and checks that the
// recovered store equals the serial oracle after some whole-batch
// prefix of the workload — and, under SyncAlways, a prefix covering
// every batch that was acknowledged before the cut.
//
// The config byte sweeps the engine matrix: unsharded and Shards=4,
// serial and pipelined streams, with and without a mid-run checkpoint,
// and reopening under the same or a different shard count. The
// workload mixes all five operations: range scans take the extended
// execution path but add no log records, while RMW effects must replay
// from the log like any other write.
//
// Bit 4 runs a pipelined RunStream (whatever bit 1 says) while a second
// goroutine calls Checkpoint in a loop. A checkpoint snapshots the
// state and claims every LSN up to the log's last; the engine holds
// the scheduling gate from a batch's append until the batch is
// emitted, so no snapshot can claim a logged batch it does not hold.
// A snapshot that did would lose that batch on recovery, which
// replays only records past the snapshot's LSN.
//
// Bit 5 runs the DB tiered (DESIGN.md §14) with a budget tiny enough
// that the 64-key space churns through demotions and promotions
// mid-workload, so the power cut lands mid-run-write, mid-demotion, or
// mid-promotion: a torn run temp or unrenamed manifest must be
// discarded on reopen, a synced promotion log batch must reconcile
// with a manifest that did or did not flip, and in every case the
// recovered state must still be a whole-batch prefix covering every
// acknowledged batch.
func FuzzCrashRecovery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, byte(0), uint16(50), uint16(1))
	f.Add([]byte{9, 9, 9, 1, 1, 200, 30, 4, 0, 255, 17, 23, 8, 8}, byte(1), uint16(200), uint16(7))
	f.Add([]byte{100, 2, 3, 100, 5, 100, 7, 8, 100, 10}, byte(3), uint16(400), uint16(42))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(7), uint16(90), uint16(3))
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, byte(15), uint16(1000), uint16(9))
	f.Add([]byte{42}, byte(31), uint16(0), uint16(0))
	f.Add([]byte{7, 1, 40, 7, 3, 0, 9, 1, 41, 9, 2, 0, 11, 1, 42, 11, 0, 0}, byte(20), uint16(300), uint16(5))
	// Scan (op 4) and RMW (op 5) arms: scans never touch the log;
	// RMW effects must be durably replayed like any other write.
	f.Add([]byte{10, 1, 40, 10, 5, 2, 20, 4, 63, 10, 5, 3, 10, 0, 0, 20, 5, 9}, byte(5), uint16(150), uint16(11))
	f.Add([]byte{1, 5, 8, 2, 5, 8, 3, 5, 9, 1, 4, 200, 2, 4, 100, 3, 3, 0}, byte(9), uint16(80), uint16(2))
	// Concurrent-checkpoint arms (bit 4), one and four shards: 40
	// batches with the cut late, so many checkpoints race the stream
	// before the power fails.
	racing := make([]byte, 600)
	for i := range racing {
		racing[i] = byte(i*37 + i/3)
	}
	f.Add(racing, byte(18), uint16(20000), uint16(8))
	f.Add(racing, byte(19), uint16(20000), uint16(12))
	// Tiered arms (bit 5): insert-heavy so the tiny budget forces
	// demotions, then writes/scans back into demoted ranges force
	// promotions; varied cut offsets land the power cut inside run
	// writes, manifest renames, and promotion log batches.
	f.Add([]byte{1, 1, 9, 9, 1, 9, 17, 1, 9, 25, 1, 9, 33, 1, 9, 41, 1, 9, 49, 1, 9, 57, 1, 9, 1, 0, 0, 33, 5, 2}, byte(32), uint16(300), uint16(4))
	f.Add([]byte{1, 1, 9, 9, 1, 9, 17, 1, 9, 25, 1, 9, 33, 1, 9, 41, 1, 9, 49, 1, 9, 57, 1, 9, 1, 4, 63, 33, 1, 7}, byte(33), uint16(600), uint16(13))
	f.Add([]byte{2, 1, 5, 10, 1, 5, 18, 1, 5, 26, 1, 5, 34, 1, 5, 42, 1, 5, 2, 3, 0, 10, 5, 2, 18, 0, 0, 26, 4, 20}, byte(36), uint16(900), uint16(21))
	f.Add([]byte{3, 1, 7, 11, 1, 7, 19, 1, 7, 27, 1, 7, 35, 1, 7, 43, 1, 7, 51, 1, 7, 3, 5, 1, 11, 5, 0, 19, 3, 0}, byte(47), uint16(1200), uint16(6))

	f.Fuzz(func(t *testing.T, data []byte, cfg byte, cut uint16, crashSeed uint16) {
		// Decode the workload: 3 bytes per query, batches of 5 queries.
		const batchLen = 5
		var batches [][]keys.Query
		var cur []keys.Query
		for i := 0; i+2 < len(data) && len(batches) < 40; i += 3 {
			k := Key(data[i] % 64) // small key space: collisions exercise QSAT
			switch data[i+1] % 6 {
			case 0:
				cur = append(cur, keys.Search(k))
			case 1, 2:
				cur = append(cur, keys.Insert(k, Value(data[i+2])+1))
			case 3:
				cur = append(cur, keys.Delete(k))
			case 4:
				// Scans are pure reads: they exercise the extended
				// execution path (cache drain, define overlay) without
				// adding log records.
				cur = append(cur, keys.Scan(k, k+Key(data[i+2]%32), Value(data[i+2]>>6)))
			default:
				if data[i+2]&1 == 0 {
					cur = append(cur, keys.AddDelta(k, Value(data[i+2])+1))
				} else {
					cur = append(cur, keys.SetIfAbsent(k, Value(data[i+2])+1))
				}
			}
			if len(cur) == batchLen {
				batches = append(batches, cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			batches = append(batches, cur)
		}

		shards := 1
		if cfg&1 != 0 {
			shards = 4
		}
		racingCheckpoints := cfg&16 != 0
		pipeline := cfg&2 != 0 || racingCheckpoints
		midCheckpoint := cfg&4 != 0
		reopenShards := 1
		if cfg&8 != 0 {
			reopenShards = 4
		}
		tiered := cfg&32 != 0

		// The oracle state after every whole-batch prefix.
		orc := oracle.New()
		rs := keys.NewResultSet(0)
		prefixes := make([]map[Key]Value, 0, len(batches)+1)
		snap := func() map[Key]Value {
			m := make(map[Key]Value)
			ks, vs := orc.Dump()
			for i := range ks {
				m[ks[i]] = vs[i]
			}
			return m
		}
		prefixes = append(prefixes, snap())
		for _, b := range batches {
			cp := make([]keys.Query, len(b))
			copy(cp, b)
			keys.Number(cp)
			rs.Reset(len(cp))
			orc.ApplyAll(cp, rs)
			prefixes = append(prefixes, snap())
		}

		// Run the workload durably, arming the power cut after `cut`
		// logged bytes, and track how many batches were acknowledged
		// (committed with no sticky error) before the cut.
		fs := faultfs.New()
		// withTier arms the tiered cold store over the same faulting
		// filesystem: a 16-key budget over the 64-key space with 8-key
		// runs keeps ranges demoting and promoting every few batches.
		withTier := func(o Options) Options {
			if tiered {
				o.Tiered = Tiered{
					Dir:             "tier",
					MaxResidentKeys: 16,
					RunKeys:         8,
					HeatBuckets:     8,
					KeyMax:          64,
					fs:              fs,
				}
			}
			return o
		}
		opts := withTier(durOpts(fs, shards, pipeline))
		opts.Durability.SegmentSize = 512 // rotate often under fuzzing
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		fs.CutAfter(int64(cut))
		acked := 0
		run := func() {
			if racingCheckpoints {
				stop, stopped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(stopped)
					for {
						select {
						case <-stop:
							return
						default:
							db.Checkpoint() // fails once the cut trips
							runtime.Gosched()
						}
					}
				}()
				defer func() {
					close(stop)
					<-stopped
				}()
			}
			if pipeline {
				in := make(chan *Batch)
				done := make(chan struct{})
				go func() {
					defer close(done)
					i := 0
					db.RunStream(in, func(*Batch, *Results) {
						i++
						if db.Err() == nil {
							acked = i
						}
					})
				}()
				for bi, b := range batches {
					nb := NewBatch()
					nb.qs = append(nb.qs, b...)
					in <- nb
					if midCheckpoint && bi == len(batches)/2 {
						db.Checkpoint() // may fail post-cut; recovery must cope
					}
				}
				close(in)
				<-done
			} else {
				for bi, b := range batches {
					nb := NewBatch()
					nb.qs = append(nb.qs, b...)
					db.Run(nb)
					if db.Err() == nil {
						acked = bi + 1
					}
					if midCheckpoint && bi == len(batches)/2 {
						db.Checkpoint()
					}
				}
			}
		}
		run()

		// Power failure: unsynced bytes resolve to arbitrary per-file
		// prefixes, then the process "dies" (Close stops goroutines; its
		// syncs see already-crashed, disarmed state — harmless).
		fs.Crash(int64(crashSeed))
		db.Close()

		// Recover — possibly under a different shard count — and demand
		// the oracle state after some whole-batch prefix that includes
		// every acknowledged batch (SyncAlways).
		db2, err := Open(withTier(durOpts(fs, reopenShards, pipeline)))
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer db2.Close()
		got := make(map[Key]Value)
		db2.Scan(func(k Key, v Value) bool {
			got[k] = v
			return true
		})
		match := -1
		for pi, want := range prefixes {
			if len(want) != len(got) {
				continue
			}
			same := true
			for k, v := range want {
				if gv, ok := got[k]; !ok || gv != v {
					same = false
					break
				}
			}
			if same {
				// Prefer the longest matching prefix (distinct batch
				// prefixes can coincide on state).
				match = pi
			}
		}
		if match < 0 {
			t.Fatalf("recovered state (%d keys) matches no whole-batch prefix of %d batches", len(got), len(batches))
		}
		if match < acked {
			t.Fatalf("recovered only %d batches but %d were acknowledged under SyncAlways", match, acked)
		}

		// The recovered DB must remain fully usable.
		db2.Put(999999, 1)
		if v, ok := db2.Get(999999); !ok || v != 1 {
			t.Fatal("recovered DB rejects writes")
		}
	})
}
