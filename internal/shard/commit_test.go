package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/keys"
	"repro/internal/wal"
)

const commitSpan = 400

// commitBatches draws a batch sequence mixing every operation, with
// some read-only batches: sizes below and above the core's inline
// threshold, keys over all of [0, commitSpan).
func commitBatches(seed int64) [][]keys.Query {
	r := rand.New(rand.NewSource(seed))
	var batches [][]keys.Query
	for i := 0; i < 24; i++ {
		n := []int{5, 255, 1500}[i%3]
		readOnly := i%4 == 3
		qs := make([]keys.Query, n)
		for j := range qs {
			k := keys.Key(r.Intn(commitSpan))
			op := r.Intn(6)
			if readOnly {
				op %= 2
			}
			switch op {
			case 0:
				qs[j] = keys.Search(k)
			case 1:
				if i%2 == 0 {
					qs[j] = keys.Scan(k, k+keys.Key(r.Intn(40)), keys.Value(r.Intn(4)))
				} else {
					qs[j] = keys.Search(k)
				}
			case 2:
				qs[j] = keys.Insert(k, keys.Value(r.Intn(1000)+1))
			case 3:
				qs[j] = keys.Delete(k)
			case 4:
				qs[j] = keys.AddDelta(k, keys.Value(r.Intn(9)+1))
			default:
				qs[j] = keys.SetIfAbsent(k, keys.Value(r.Intn(1000)+1))
			}
		}
		batches = append(batches, keys.Number(qs))
	}
	return batches
}

// wantRecords is what the log must hold for batches: one record per
// batch with at least one define, holding its defines in batch order
// (Idx is the position in the record, as replay numbers it).
func wantRecords(batches [][]keys.Query) [][]keys.Query {
	var out [][]keys.Query
	for _, b := range batches {
		var rec []keys.Query
		for _, q := range b {
			if q.Op.IsDefining() {
				q.Idx = int32(len(rec))
				rec = append(rec, q)
			}
		}
		if len(rec) > 0 {
			out = append(out, rec)
		}
	}
	return out
}

// durableEngine builds an n-shard engine logging into a fresh log on
// fs (SyncAlways).
func durableEngine(t *testing.T, fs *faultfs.FS, n int, cfg core.EngineConfig) (*Engine, *wal.Log) {
	t.Helper()
	rec, err := wal.Recover("d", wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	log, err := rec.OpenLog()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Shards: n, Engine: cfg, KeyMax: commitSpan - 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetCommitter(log)
	return e, log
}

// runBatches feeds copies of batches through ProcessBatch, or through
// ProcessStream when stream is set, and returns the emitted count.
func runBatches(e *Engine, batches [][]keys.Query, stream bool) int {
	if !stream {
		for _, b := range batches {
			e.ProcessBatch(slices.Clone(b), keys.NewResultSet(len(b)))
		}
		return len(batches)
	}
	in := make(chan *core.Job)
	go func() {
		for _, b := range batches {
			in <- &core.Job{Qs: slices.Clone(b)}
		}
		close(in)
	}()
	emitted := 0
	e.ProcessStream(in, func(*core.Job) { emitted++ })
	return emitted
}

// recovered reads back the batches logged on fs.
func recovered(t *testing.T, fs *faultfs.FS) [][]keys.Query {
	t.Helper()
	rec, err := wal.Recover("d", wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Batches
}

// TestSerialPipelinedCommitParity checks that the engine logs the same
// records whatever the mode, shard count and execution: serial batches
// and a pipelined stream each write one record per batch that has a
// define, holding exactly the batch's defines in batch order, and
// nothing for a read-only batch.
func TestSerialPipelinedCommitParity(t *testing.T) {
	for _, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter, core.Adaptive} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, n := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					batches := commitBatches(int64(mode)*10 + int64(n))
					want := wantRecords(batches)
					for _, pipelined := range []bool{false, true} {
						fs := faultfs.New()
						e, log := durableEngine(t, fs, n, testEngineConfig(mode, pipelined))
						runBatches(e, batches, pipelined)
						e.Close()
						if err := log.Close(); err != nil {
							t.Fatal(err)
						}
						got := recovered(t, fs)
						if len(got) != len(want) {
							t.Fatalf("pipelined=%v: %d records, want %d", pipelined, len(got), len(want))
						}
						for i := range want {
							if !slices.Equal(got[i], want[i]) {
								t.Fatalf("pipelined=%v: record %d = %v, want %v", pipelined, i, got[i], want[i])
							}
						}
					}
				})
			}
		})
	}
}

// TestCommitRecordsPerBatch pins the record count at the file system:
// a read-only batch appends nothing and causes no fsync under
// SyncAlways, and a batch whose keys reach every one of four shards is
// exactly one record and one fsync.
func TestCommitRecordsPerBatch(t *testing.T) {
	readOnly := keys.Number([]keys.Query{
		keys.Search(1), keys.Search(150), keys.Scan(90, 310, 0), keys.Search(399),
	})
	spread := keys.Number([]keys.Query{
		keys.Insert(1, 1), keys.Search(150), keys.AddDelta(150, 2),
		keys.Insert(250, 3), keys.Scan(0, commitSpan, 0), keys.Delete(399),
	})
	for _, n := range []int{1, 4} {
		for _, stream := range []bool{false, true} {
			tag := fmt.Sprintf("shards=%d stream=%v", n, stream)
			fs := faultfs.New()
			e, log := durableEngine(t, fs, n, testEngineConfig(core.Adaptive, stream))
			w0, s0 := fs.Stats()
			runBatches(e, [][]keys.Query{readOnly, readOnly}, stream)
			if w, s := fs.Stats(); w != w0 || s != s0 || log.LastLSN() != 0 {
				t.Fatalf("%s: read-only batches made %d writes, %d fsyncs, LSN %d", tag, w-w0, s-s0, log.LastLSN())
			}
			runBatches(e, [][]keys.Query{spread}, stream)
			if w, s := fs.Stats(); w != w0+1 || s != s0+1 || log.LastLSN() != 1 {
				t.Fatalf("%s: spread batch made %d writes, %d fsyncs, LSN %d; want 1, 1, 1", tag, w-w0, s-s0, log.LastLSN())
			}
			e.Close()
			log.Close()
			if got, want := recovered(t, fs), wantRecords([][]keys.Query{spread}); len(got) != 1 || !slices.Equal(got[0], want[0]) {
				t.Fatalf("%s: recovered %v, want %v", tag, got, want)
			}
		}
	}
}

// failingCommitter accepts ok records, then fails every later one.
type failingCommitter struct{ ok int }

var errCommit = errors.New("commit failed")

func (c *failingCommitter) CommitBatch([]keys.Query) error {
	if c.ok == 0 {
		return errCommit
	}
	c.ok--
	return nil
}

// TestFailedCommitDropsLaterBatches: once an append fails, that batch
// and every later one are dropped unapplied, yet a stream still emits
// every job in order, and CommitErr reports the failure.
func TestFailedCommitDropsLaterBatches(t *testing.T) {
	batches := make([][]keys.Query, 6)
	for i := range batches {
		batches[i] = keys.Number([]keys.Query{
			keys.Insert(keys.Key(10*i), 1), keys.Insert(keys.Key(10*i+200), 1), keys.Search(keys.Key(10 * i)),
		})
	}
	for _, n := range []int{1, 4} {
		for _, stream := range []bool{false, true} {
			tag := fmt.Sprintf("shards=%d stream=%v", n, stream)
			e, err := New(Config{Shards: n, Engine: testEngineConfig(core.Adaptive, stream), KeyMax: commitSpan - 1})
			if err != nil {
				t.Fatal(err)
			}
			e.SetCommitter(&failingCommitter{ok: 3})
			if got := runBatches(e, batches, stream); got != len(batches) {
				t.Fatalf("%s: emitted %d of %d", tag, got, len(batches))
			}
			if !errors.Is(e.CommitErr(), errCommit) {
				t.Fatalf("%s: CommitErr = %v", tag, e.CommitErr())
			}
			if got := e.Len(); got != 6 {
				t.Fatalf("%s: %d keys stored, want the 6 of the 3 committed batches", tag, got)
			}
			e.Close()
		}
	}
}
