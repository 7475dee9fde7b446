package wal_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/keys"
	"repro/internal/wal"
)

func batch(ops ...keys.Query) []keys.Query { return ops }

// defines returns the defining queries of qs, in order: what a record
// of qs holds.
func defines(qs []keys.Query) []keys.Query {
	var out []keys.Query
	for _, q := range qs {
		if q.Op.IsDefining() {
			out = append(out, q)
		}
	}
	return out
}

func stripIdx(qs []keys.Query) []keys.Query {
	out := make([]keys.Query, len(qs))
	for i, q := range qs {
		q.Idx = int32(i)
		out[i] = q
	}
	return out
}

func openLog(t *testing.T, fs wal.FS, dir string, opts wal.Options) (*wal.Recovery, *wal.Log) {
	t.Helper()
	opts.FS = fs
	rec, err := wal.Recover(dir, opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	l, err := rec.OpenLog()
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return rec, l
}

func TestRoundTripBatches(t *testing.T) {
	fs := faultfs.New()
	batches := [][]keys.Query{
		batch(keys.Insert(1, 10), keys.Search(1)),
		batch(keys.Delete(1)),
		batch(keys.Insert(2, 20), keys.Insert(3, 30), keys.Search(9)),
	}
	_, l := openLog(t, fs, "d", wal.Options{})
	for _, b := range batches {
		if err := l.CommitBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, l2 := openLog(t, fs, "d", wal.Options{})
	defer l2.Close()
	if rec.SnapshotPayload != nil || rec.SnapshotLSN != 0 {
		t.Fatalf("unexpected snapshot: lsn=%d", rec.SnapshotLSN)
	}
	if len(rec.Batches) != len(batches) {
		t.Fatalf("recovered %d batches, want %d", len(rec.Batches), len(batches))
	}
	for i := range batches {
		if want := stripIdx(defines(batches[i])); !reflect.DeepEqual(rec.Batches[i], want) {
			t.Fatalf("batch %d: got %v want %v", i, rec.Batches[i], want)
		}
	}
	// LSNs continue after recovery.
	if got := l2.LastLSN(); got != 3 {
		t.Fatalf("LastLSN after recovery = %d, want 3", got)
	}
}

// TestPartsRequireCommitMarker: the reader still replays logs of the
// per-shard commit protocol, where each shard appended a part record
// and a commit marker sealed the batch. A part without its marker is
// discarded.
func TestPartsRequireCommitMarker(t *testing.T) {
	fs := faultfs.New()
	_, l := openLog(t, fs, "d", wal.Options{})

	// Batch 1: two parts + commit marker.
	for _, r := range []struct {
		kind uint8
		lsn  uint64
		qs   []keys.Query
	}{
		{wal.KindPart, 1, batch(keys.Insert(1, 1))},
		{wal.KindPart, 1, batch(keys.Insert(100, 2))},
		{wal.KindCommit, 1, nil},
		// Batch 2: a part with no commit marker — must be discarded.
		{wal.KindPart, 2, batch(keys.Insert(7, 7))},
	} {
		if err := l.AppendRecord(r.kind, r.lsn, r.qs); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	rec, l2 := openLog(t, fs, "d", wal.Options{})
	defer l2.Close()
	if len(rec.Batches) != 1 {
		t.Fatalf("recovered %d batches, want 1 (uncommitted parts dropped)", len(rec.Batches))
	}
	got := rec.Batches[0]
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 100 {
		t.Fatalf("reassembled batch = %v", got)
	}
}

func TestTornTailTolerated(t *testing.T) {
	for cut := int64(0); cut < 400; cut += 7 {
		fs := faultfs.New()
		_, l := openLog(t, fs, "d", wal.Options{Sync: wal.SyncOff})
		var wrote int
		for i := 0; i < 8; i++ {
			if err := l.CommitBatch(batch(keys.Insert(keys.Key(i), keys.Value(i)))); err != nil {
				break
			}
			wrote++
		}
		fs.SyncAll()
		// Simulate a torn tail: chop the segment at an arbitrary byte.
		name := "d/wal-0000000000000001.seg"
		content, ok := fs.Content(name)
		if !ok {
			t.Fatalf("cut %d: no segment", cut)
		}
		if cut >= int64(len(content)) {
			continue
		}
		if err := fs.Truncate(name, cut); err != nil {
			t.Fatal(err)
		}

		rec, l2 := openLog(t, fs, "d", wal.Options{})
		got := len(rec.Batches)
		if got > wrote {
			t.Fatalf("cut %d: recovered %d > wrote %d", cut, got, wrote)
		}
		// Whatever survived must be an exact prefix.
		for i, b := range rec.Batches {
			if len(b) != 1 || b[0].Key != keys.Key(i) {
				t.Fatalf("cut %d: batch %d = %v", cut, i, b)
			}
		}
		// The reopened log must accept appends and recover them.
		if err := l2.CommitBatch(batch(keys.Insert(999, 999))); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l2.Close()
		rec2, l3 := openLog(t, fs, "d", wal.Options{})
		if len(rec2.Batches) != got+1 || rec2.Batches[got][0].Key != 999 {
			t.Fatalf("cut %d: after reopen got %d batches", cut, len(rec2.Batches))
		}
		l3.Close()
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	fs := faultfs.New()
	// Tiny segments force rotation nearly every batch.
	_, l := openLog(t, fs, "d", wal.Options{SegmentSize: 64})
	for i := 0; i < 20; i++ {
		if err := l.CommitBatch(batch(keys.Insert(keys.Key(i), 1))); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.List("d")
	if len(names) < 5 {
		t.Fatalf("expected many segments, got %v", names)
	}

	// Snapshot at the last LSN, then truncate: all old segments go.
	snapLSN := l.LastLSN()
	if err := wal.WriteSnapshot(fs, "d", snapLSN, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateObsolete(snapLSN); err != nil {
		t.Fatal(err)
	}
	names, _ = fs.List("d")
	segs := 0
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("after truncate: %d segments (%v), want 1", segs, names)
	}

	// Continue appending; recovery sees snapshot + only the new batches.
	if err := l.CommitBatch(batch(keys.Insert(777, 7))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	rec, l2 := openLog(t, fs, "d", wal.Options{})
	defer l2.Close()
	if string(rec.SnapshotPayload) != "payload" || rec.SnapshotLSN != snapLSN {
		t.Fatalf("snapshot payload %q lsn %d", rec.SnapshotPayload, rec.SnapshotLSN)
	}
	if len(rec.Batches) != 1 || rec.Batches[0][0].Key != 777 {
		t.Fatalf("post-snapshot batches = %v", rec.Batches)
	}
}

func TestSnapshotAtomicUnderPowerCut(t *testing.T) {
	// A cut at every byte offset during snapshot writing must leave
	// either the old snapshot or the new one — never a corrupt state.
	for cut := int64(0); cut < 120; cut++ {
		fs := faultfs.New()
		if err := wal.WriteSnapshot(fs, "d", 1, func(w io.Writer) error {
			_, err := w.Write([]byte("old-state"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		fs.CutAfter(cut)
		err := wal.WriteSnapshot(fs, "d", 2, func(w io.Writer) error {
			_, err := w.Write([]byte("new-state!"))
			return err
		})
		fs.Crash(int64(cut) * 31)
		rec, err2 := wal.Recover("d", wal.Options{FS: fs})
		if err2 != nil {
			t.Fatalf("cut %d: recover: %v", cut, err2)
		}
		switch string(rec.SnapshotPayload) {
		case "old-state":
			if err == nil {
				t.Fatalf("cut %d: write reported success but old snapshot survived", cut)
			}
			if rec.SnapshotLSN != 1 {
				t.Fatalf("cut %d: lsn %d", cut, rec.SnapshotLSN)
			}
		case "new-state!":
			if rec.SnapshotLSN != 2 {
				t.Fatalf("cut %d: lsn %d", cut, rec.SnapshotLSN)
			}
		default:
			t.Fatalf("cut %d: payload %q", cut, rec.SnapshotPayload)
		}
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	fs := faultfs.New()
	_, l := openLog(t, fs, "d", wal.Options{})
	for i := 0; i < 4; i++ {
		if err := l.CommitBatch(batch(keys.Insert(keys.Key(i), 1))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	name := "d/wal-0000000000000001.seg"
	content, _ := fs.Content(name)
	// Flip one byte inside the third record's payload area.
	mut := append([]byte(nil), content...)
	mut[len(mut)-10] ^= 0xFF
	f, _ := fs.Create(name)
	f.Write(mut)
	f.Sync()
	f.Close()

	rec, l2 := openLog(t, fs, "d", wal.Options{})
	defer l2.Close()
	if len(rec.Batches) >= 4 {
		t.Fatalf("corrupt record still replayed: %d batches", len(rec.Batches))
	}
	for i, b := range rec.Batches {
		if b[0].Key != keys.Key(i) {
			t.Fatalf("non-prefix recovery at %d", i)
		}
	}
}

func TestSyncPolicyDurability(t *testing.T) {
	// With SyncAlways every committed batch survives a crash that
	// drops all unsynced bytes; with SyncOff nothing need survive.
	for _, tc := range []struct {
		policy wal.SyncPolicy
		min    int
	}{{wal.SyncAlways, 5}, {wal.SyncOff, 0}} {
		fs := faultfs.New()
		_, l := openLog(t, fs, "d", wal.Options{Sync: tc.policy})
		for i := 0; i < 5; i++ {
			if err := l.CommitBatch(batch(keys.Insert(keys.Key(i), 1))); err != nil {
				t.Fatal(err)
			}
		}
		// Crash with seed 0 → rng keeps arbitrary volatile prefixes;
		// durable bytes always survive.
		fs.Crash(1)
		rec, err := wal.Recover("d", wal.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Batches) < tc.min {
			t.Fatalf("policy %v: recovered %d batches, want >= %d", tc.policy, len(rec.Batches), tc.min)
		}
	}
}

func TestPoisonAfterWriteFailure(t *testing.T) {
	fs := faultfs.New()
	_, l := openLog(t, fs, "d", wal.Options{})
	if err := l.CommitBatch(batch(keys.Insert(1, 1))); err != nil {
		t.Fatal(err)
	}
	fs.CutAfter(3)
	if err := l.CommitBatch(batch(keys.Insert(2, 2))); err == nil {
		t.Fatal("append past the cut succeeded")
	}
	if err := l.Err(); err == nil {
		t.Fatal("log not poisoned after failed append")
	}
	fs.Crash(0)
	if err := l.CommitBatch(batch(keys.Insert(3, 3))); err == nil {
		t.Fatal("poisoned log accepted a batch")
	}
}

func TestEncodeDecodeFuzzSeedShapes(t *testing.T) {
	// Exercises frame validation directly: random garbage appended to a
	// valid log must never panic recovery.
	fs := faultfs.New()
	_, l := openLog(t, fs, "d", wal.Options{})
	l.CommitBatch(batch(keys.Insert(1, 1)))
	l.Close()
	name := "d/wal-0000000000000001.seg"
	content, _ := fs.Content(name)
	for _, tail := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, // absurd length
		{13, 0, 0, 0, 1, 2, 3, 4},            // plausible length, bad crc
		bytes.Repeat([]byte{0xAA}, 3),        // short garbage
		{0, 0, 0, 0, 0, 0, 0, 0},             // zero-length frame
	} {
		f, _ := fs.Create(name)
		f.Write(append(append([]byte(nil), content...), tail...))
		f.Sync()
		f.Close()
		rec, err := wal.Recover("d", wal.Options{FS: fs})
		if err != nil {
			t.Fatalf("tail %v: %v", tail, err)
		}
		if len(rec.Batches) != 1 {
			t.Fatalf("tail %v: %d batches", tail, len(rec.Batches))
		}
	}
}

func TestSegNames(t *testing.T) {
	for i := uint64(1); i < 100; i += 13 {
		name := fmt.Sprintf("wal-%016d.seg", i)
		_ = name
	}
}

// TestRMWRoundTripBatches: read-modify-write queries commit and replay
// with their kind intact (scans, like searches, are left out of the
// record).
func TestRMWRoundTripBatches(t *testing.T) {
	fs := faultfs.New()
	batches := [][]keys.Query{
		batch(keys.AddDelta(1, 10), keys.Insert(2, 20)),
		batch(keys.SetIfAbsent(3, 30), keys.Delete(2), keys.AddDelta(1, 1)),
	}
	_, l := openLog(t, fs, "d", wal.Options{})
	for _, b := range batches {
		if err := l.CommitBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, l2 := openLog(t, fs, "d", wal.Options{})
	defer l2.Close()
	if len(rec.Batches) != len(batches) {
		t.Fatalf("recovered %d batches, want %d", len(rec.Batches), len(batches))
	}
	for bi, want := range batches {
		got := rec.Batches[bi]
		if !reflect.DeepEqual(got, stripIdx(want)) {
			t.Fatalf("batch %d:\n got %+v\nwant %+v", bi, got, stripIdx(want))
		}
	}
}

// TestReadOnlyBatchAppendsNothing: a batch of searches and scans
// changes no state, so CommitBatch appends no record, takes no LSN and
// causes no fsync even under SyncAlways; a batch mixing reads and
// defines records only its defines, in batch order.
func TestReadOnlyBatchAppendsNothing(t *testing.T) {
	fs := faultfs.New()
	_, l := openLog(t, fs, "d", wal.Options{Sync: wal.SyncAlways})
	w0, s0 := fs.Stats()
	if err := l.CommitBatch(batch(keys.Search(1), keys.Scan(0, 9, 0), keys.Search(2))); err != nil {
		t.Fatal(err)
	}
	if w, s := fs.Stats(); w != w0 || s != s0 {
		t.Fatalf("read-only batch: %d writes, %d fsyncs", w-w0, s-s0)
	}
	if got := l.LastLSN(); got != 0 {
		t.Fatalf("read-only batch took LSN %d", got)
	}
	mixed := batch(keys.Search(5), keys.Insert(5, 50), keys.Scan(0, 9, 0), keys.AddDelta(5, 1), keys.Delete(3))
	if err := l.CommitBatch(mixed); err != nil {
		t.Fatal(err)
	}
	if w, s := fs.Stats(); w != w0+1 || s != s0+1 {
		t.Fatalf("mixed batch: %d writes, %d fsyncs, want 1 and 1", w-w0, s-s0)
	}
	l.Close()

	rec, l2 := openLog(t, fs, "d", wal.Options{})
	defer l2.Close()
	want := stripIdx(batch(keys.Insert(5, 50), keys.AddDelta(5, 1), keys.Delete(3)))
	if len(rec.Batches) != 1 || !reflect.DeepEqual(rec.Batches[0], want) {
		t.Fatalf("recovered %v, want [%v]", rec.Batches, want)
	}
}
