package qtrans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/tier"
	"repro/internal/wal"
)

// SyncPolicy selects when the write-ahead log fsyncs; see the
// durability model in DESIGN.md §7 and the fsync sweep in
// EXPERIMENTS.md.
type SyncPolicy = wal.SyncPolicy

// Fsync policies (the zero value is SyncAlways).
const (
	// SyncAlways fsyncs every batch before it is applied: an
	// acknowledged batch survives any crash.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs from a background ticker; a crash loses at
	// most the last interval's batches.
	SyncInterval = wal.SyncInterval
	// SyncOff leaves flushing to the OS; a crash may lose any unflushed
	// suffix. Recovery still restores a whole-batch prefix.
	SyncOff = wal.SyncOff
)

// Durability configures crash-safe operation (DESIGN.md §7). The zero
// value — no directory — leaves durability off with semantics and
// performance identical to previous releases.
//
// With Dir set, Open recovers the directory's snapshot and write-ahead
// log before serving, every batch's defines (inserts, deletes, RMWs)
// are logged as one record, in batch order, before any effect reaches
// tree or cache — a read-only batch logs nothing — and Checkpoint
// writes an atomic snapshot that truncates the log. After any crash —
// even mid-write — reopening yields the state after a whole-batch
// prefix of the committed stream; under SyncAlways that prefix
// includes every acknowledged batch.
type Durability struct {
	// Dir is the durability directory (snapshot + log segments). Empty
	// means durability off.
	Dir string
	// Sync is the fsync policy (zero value = SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush period under the SyncInterval policy
	// (0 = 50ms).
	SyncInterval time.Duration
	// SegmentSize rotates log segments at this size (0 = 4 MiB).
	SegmentSize int64

	// fs overrides the filesystem (fault-injection tests only).
	fs wal.FS
}

func (d Durability) walOptions() wal.Options {
	return wal.Options{
		FS:           d.fs,
		SegmentSize:  d.SegmentSize,
		Sync:         d.Sync,
		SyncInterval: d.SyncInterval,
	}
}

// openDurable recovers Dir's snapshot and log into a fresh DB and
// attaches the commit hooks, so every later batch is logged before it
// is applied. Works identically for every shard count: the log records
// query streams, not shard assignments, so a directory written with
// one shard count reopens under any other.
func openDurable(opts Options) (*DB, error) {
	wo := opts.Durability.walOptions()
	wo.Metrics = opts.Metrics
	rec, err := wal.Recover(opts.Durability.Dir, wo)
	if err != nil {
		return nil, err
	}
	var tree *btree.Tree
	var snapRes *tier.Residency
	if rec.SnapshotPayload != nil {
		treeBytes := rec.SnapshotPayload
		if isTieredSnapshot(treeBytes) {
			if opts.Tiered.Dir == "" {
				return nil, fmt.Errorf("qtrans: %s holds a tiered snapshot; reopen with Options.Tiered", opts.Durability.Dir)
			}
			treeBytes, snapRes, err = splitTieredSnapshot(rec.SnapshotPayload)
			if err != nil {
				return nil, fmt.Errorf("qtrans: corrupt tiered snapshot in %s: %w", opts.Durability.Dir, err)
			}
		}
		tree, err = btree.Load(bytes.NewReader(treeBytes), opts.Order)
		if err != nil {
			return nil, fmt.Errorf("qtrans: corrupt snapshot in %s: %w", opts.Durability.Dir, err)
		}
		opts.Order = tree.Order()
	}
	db, err := build(opts, tree)
	if err != nil {
		return nil, err
	}

	// Replay committed batches logged after the snapshot, in commit
	// order, through the normal batch path (a batch's defines fully
	// determine its state effect). The commit hook is not yet
	// attached, so replay does not re-log. On a tiered DB the replay
	// runs on the raw inner engine — promotions logged before the
	// crash replay as plain insert batches, and the tier wrapper is
	// attached only afterwards so no replayed query can trigger a
	// spurious fault-in.
	rs := keys.NewResultSet(0)
	for _, b := range rec.Batches {
		keys.Number(b)
		rs.Reset(len(b))
		db.eng.ProcessBatch(b, rs)
	}

	// Reconcile the tier directory with the replayed state: the
	// manifest is the authority for which ranges are cold, and their
	// runs override whatever the replay rebuilt for those keys
	// (demoted keys replay hot because their original inserts are
	// still in the log; the purge removes them again).
	if err := db.wireTier(opts, false); err != nil {
		db.eng.Close()
		return nil, err
	}
	if db.tier != nil {
		if snapRes != nil && len(snapRes.ColdRuns()) > 0 && !db.tier.Store().Recovered() {
			db.eng.Close()
			return nil, fmt.Errorf("qtrans: snapshot in %s references cold runs but tier directory %s has no manifest (tier state lost)",
				opts.Durability.Dir, opts.Tiered.Dir)
		}
		db.tier.PurgeCold()
	}

	log, err := rec.OpenLog()
	if err != nil {
		db.eng.Close()
		return nil, err
	}
	db.log = log
	db.durDir = opts.Durability.Dir
	db.durFS = opts.Durability.fs
	if db.durFS == nil {
		db.durFS = wal.OS()
	}
	db.shards.SetCommitter(log)
	if db.tier != nil {
		db.tier.SetLogger(log)
	}
	return db, nil
}

// Tiered snapshot payload (inside the QSN1 snapshot envelope):
//
//	magic    [4]byte "QTS1"
//	treeLen  u64
//	tree     treeLen bytes (the hot tree, QBT3)
//	residency remaining bytes (QTM1, self-validating)
//
// Only hot state and the residency map are snapshotted — cold runs
// stay where they are, so Checkpoint never materializes cold data and
// peak memory stays bounded by the resident budget.

var tieredSnapMagic = [4]byte{'Q', 'T', 'S', '1'}

func isTieredSnapshot(payload []byte) bool {
	return len(payload) >= 4 && [4]byte(payload[0:4]) == tieredSnapMagic
}

// splitTieredSnapshot separates a tiered snapshot payload into the hot
// tree bytes and the decoded residency map.
func splitTieredSnapshot(payload []byte) ([]byte, *tier.Residency, error) {
	if len(payload) < 12 {
		return nil, nil, fmt.Errorf("short payload (%d bytes)", len(payload))
	}
	tl := binary.LittleEndian.Uint64(payload[4:12])
	if tl > uint64(len(payload)-12) {
		return nil, nil, fmt.Errorf("tree length %d exceeds payload", tl)
	}
	res, err := tier.DecodeResidency(payload[12+tl:])
	if err != nil {
		return nil, nil, err
	}
	return payload[12 : 12+tl], res, nil
}

// Checkpoint writes an atomic snapshot of the current state into the
// durability directory and truncates the log segments it makes
// obsolete, bounding recovery time. It waits for in-flight batches at
// a batch boundary (it may be called while a RunStream or Service is
// active) and is crash-safe at every point: until the snapshot's
// final rename the previous snapshot and full log remain authoritative.
func (db *DB) Checkpoint() error {
	if db.log == nil {
		return fmt.Errorf("qtrans: Checkpoint requires Options.Durability.Dir")
	}
	if err := db.Err(); err != nil {
		return err
	}
	db.gate.Lock()
	defer db.gate.Unlock()
	// No batch is in flight: every batch with LSN <= lsn is fully
	// applied and none beyond is started, so the dump is exactly the
	// log's prefix state.
	lsn := db.log.LastLSN()
	if err := wal.WriteSnapshot(db.durFS, db.durDir, lsn, func(w io.Writer) error {
		if db.tier != nil {
			return db.saveTieredLocked(w)
		}
		return db.saveLocked(w)
	}); err != nil {
		return err
	}
	return db.log.TruncateObsolete(lsn)
}

// saveTieredLocked writes the tiered snapshot payload: the hot tree
// plus the residency map, atomically together (the caller wraps this
// in WriteSnapshot's temp+rename). Cold runs are not materialized —
// they are immutable files already on disk, and the manifest remains
// the recovery authority for them; the embedded residency copy guards
// against a lost tier directory.
func (db *DB) saveTieredLocked(w io.Writer) error {
	var tree bytes.Buffer
	if err := db.shards.Save(&tree); err != nil {
		return err
	}
	var hdr [12]byte
	copy(hdr[0:4], tieredSnapMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(tree.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(tree.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(db.tier.Store().EncodedResidency())
	return err
}

// Err reports the DB's sticky durability failure, if any. Once a log
// append or fsync has failed, the failing batch and every later one
// are dropped without being applied (state never runs ahead of the
// log) and Err returns the cause; results produced after the failure
// are unspecified and no further mutations reach the store.
func (db *DB) Err() error {
	if db.tier != nil {
		if err := db.tier.Err(); err != nil {
			return err
		}
	}
	if err := db.shards.CommitErr(); err != nil {
		return err
	}
	if db.log != nil {
		return db.log.Err()
	}
	return nil
}
