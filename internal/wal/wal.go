// Package wal implements the crash-safe durability layer of the engine
// (DESIGN.md §7): a length-framed, CRC32C-checksummed write-ahead log
// of committed batches, plus atomic snapshot files.
//
// The commit point is the batch — the atomic unit of evaluation in the
// PALM/QTrans design — and what is logged per batch is its defining
// queries (inserts, deletes, RMWs) in batch order, appended *before*
// any of the batch's effects reach tree or cache (append-then-apply).
// Searches and scans change no state (the define/use split of §IV-B),
// so a batch without defines appends nothing. A crash therefore loses
// at most a whole-batch suffix: replay recovers exactly the state after
// some whole-batch prefix of the committed stream.
//
// Segment format (little-endian):
//
//	magic  [4]byte "QWL1"
//	frames:
//	  length uint32   payload bytes
//	  crc    uint32   CRC32C of payload
//	  payload:
//	    kind   uint8    1=batch  2=part  3=commit
//	    lsn    uint64
//	    count  uint32   queries (0 for commit markers)
//	    count × { op uint8, key uint64, value uint64 }
//
// The record op byte is a wire code, not keys.Op: 0=search, 1=insert,
// 2=delete, 4=RMW(add), 5=RMW(set-if-absent), with the RMW operand in
// the value field. The writer emits only codes 1, 2, 4 and 5; the
// reader still accepts 0, which logs written before searches were
// dropped from records hold (wire code 3 is reserved for scans and
// rejected on replay).
//
// The writer appends only `batch` records: one per batch, whatever the
// shard count, since the sharded engine logs the whole batch before it
// splits it. The reader also accepts the `part` and `commit` records of
// logs written when each shard logged its own sub-batch: parts
// accumulate per LSN and become one batch at their commit marker, and
// parts without a marker are discarded on replay.
//
// Replay tolerates a truncated tail: scanning stops at the first
// invalid frame (torn write, CRC mismatch, short segment) and everything
// from that point on — including later segments — is treated as lost,
// which keeps the recovered stream a prefix in batch order.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/keys"
	"repro/internal/metrics"
)

// SyncPolicy selects when the log fsyncs (the durability/throughput
// trade documented in EXPERIMENTS.md).
type SyncPolicy int

const (
	// SyncAlways fsyncs every committed batch before it is applied —
	// the zero value, and the only policy under which an acknowledged
	// batch is guaranteed to survive a power cut.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker every SyncInterval;
	// a crash loses at most the last interval's batches.
	SyncInterval
	// SyncOff never fsyncs (the OS decides); a crash may lose any
	// unflushed suffix. Replay still recovers a whole-batch prefix.
	SyncOff
)

// String names the policy as used by flags and benchmarks.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options tunes a Log.
type Options struct {
	// FS is the filesystem to operate on (nil = the real OS one).
	FS FS
	// SegmentSize rotates to a new segment file once the current one
	// exceeds this many bytes (0 = 4 MiB).
	SegmentSize int64
	// Sync is the fsync policy (zero value = SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the background fsync period for SyncInterval
	// (0 = 50ms).
	SyncInterval time.Duration
	// Metrics, when non-nil, receives append/fsync latency histograms
	// (wal_append_ns, wal_fsync_ns). Nil adds no per-record overhead.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS()
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	return o
}

var (
	segMagic  = [4]byte{'Q', 'W', 'L', '1'}
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
	snapName  = "snapshot"
	snapTemp  = "snapshot.tmp"
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// maxFrame bounds one record's payload so a corrupt length field cannot
// force a huge allocation during replay.
const maxFrame = 64 << 20

const (
	kindBatch  = 1
	kindPart   = 2
	kindCommit = 3
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix) }

func parseSegName(name string) (seq uint64, ok bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) {
		return 0, false
	}
	if name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	if _, err := fmt.Sscanf(name[len(segPrefix):len(segPrefix)+16], "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Log is the append side of the write-ahead log. All methods are safe
// for concurrent use (appends from parallel shards serialize on an
// internal mutex). A Log is obtained from Recovery.OpenLog.
type Log struct {
	mu   sync.Mutex
	fs   FS
	dir  string
	opts Options

	seg     File   // current segment (nil after Close)
	segSeq  uint64 // current segment's sequence number
	segSize int64
	// segMax records, per live segment sequence number, the highest LSN
	// any of its records references — the conservative bound
	// TruncateObsolete uses.
	segMax map[uint64]uint64

	next    uint64 // next LSN to assign (LSNs start at 1)
	dirty   bool   // unsynced appends pending (interval mode)
	err     error  // sticky failure; the log is poisoned once set
	closed  bool
	scratch []byte // frame build buffer; guarded by mu

	stop chan struct{}
	wg   sync.WaitGroup

	// Metric handles (nil when Options.Metrics is nil).
	metReg   *metrics.Registry
	appendNS *metrics.Histogram
	fsyncNS  *metrics.Histogram
}

// newLog opens a fresh segment for appending. next is the first LSN to
// assign; seq is the segment sequence number to create.
func newLog(fs FS, dir string, opts Options, next, seq uint64) (*Log, error) {
	l := &Log{
		fs:     fs,
		dir:    dir,
		opts:   opts,
		next:   next,
		segMax: make(map[uint64]uint64),
	}
	if opts.Metrics != nil {
		l.metReg = opts.Metrics
		l.appendNS = opts.Metrics.Histogram("wal_append_ns")
		l.fsyncNS = opts.Metrics.Histogram("wal_fsync_ns")
	}
	if err := l.rotateLocked(seq); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// syncLoop is the SyncInterval background fsync.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		}
	}
}

// syncLocked fsyncs the current segment if it has unsynced appends.
func (l *Log) syncLocked() {
	if l.err != nil || !l.dirty || l.seg == nil {
		return
	}
	var start time.Time
	if l.fsyncNS != nil {
		start = l.metReg.Now()
	}
	if err := l.seg.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		return
	}
	if l.fsyncNS != nil {
		l.fsyncNS.Observe(l.metReg.Since(start))
	}
	l.dirty = false
}

// rotateLocked closes the current segment (fsyncing it first unless the
// policy is SyncOff) and opens segment seq.
func (l *Log) rotateLocked(seq uint64) error {
	if l.seg != nil {
		if l.opts.Sync != SyncOff {
			l.syncLocked()
		}
		if err := l.seg.Close(); err != nil && l.err == nil {
			l.err = fmt.Errorf("wal: close segment: %w", err)
		}
		l.seg = nil
		if l.err != nil {
			return l.err
		}
	}
	f, err := l.fs.Create(filepath.Join(l.dir, segName(seq)))
	if err != nil {
		l.err = fmt.Errorf("wal: create segment: %w", err)
		return l.err
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		l.err = fmt.Errorf("wal: segment magic: %w", err)
		return l.err
	}
	l.seg = f
	l.segSeq = seq
	l.segSize = int64(len(segMagic))
	l.segMax[seq] = 0
	l.dirty = true
	return nil
}

// Wire op codes for logged queries. 0-2 coincide with keys.Op; 3 is
// reserved (scans are never logged); RMW splits into one code per kind
// so the 17-byte record needs no extra field.
const (
	wireSearch      = 0
	wireInsert      = 1
	wireDelete      = 2
	wireRMWAdd      = 4
	wireRMWSetIfAbs = 5
)

// wireOp maps a query to its wire code. encodeFrame passes it defines
// only, so a scan here is a programming error, not an I/O condition.
func wireOp(q *keys.Query) byte {
	switch q.Op {
	case keys.OpSearch:
		return wireSearch
	case keys.OpInsert:
		return wireInsert
	case keys.OpDelete:
		return wireDelete
	case keys.OpRMW:
		if q.RMW == keys.RMWSetIfAbsent {
			return wireRMWSetIfAbs
		}
		return wireRMWAdd
	default:
		panic(fmt.Sprintf("wal: query op %d cannot be logged", q.Op))
	}
}

// countDefines returns how many of qs are defines.
func countDefines(qs []keys.Query) int {
	n := 0
	for i := range qs {
		if qs[i].Op.IsDefining() {
			n++
		}
	}
	return n
}

// encodeFrame appends to buf one framed record of the defines among
// qs, in their order, and returns it. Searches and scans are skipped
// in place, so a batch is encoded without a copy of its defines.
func encodeFrame(buf []byte, kind uint8, lsn uint64, qs []keys.Query) []byte {
	n := countDefines(qs)
	plen := 1 + 8 + 4 + 17*n
	start := len(buf)
	buf = append(buf, make([]byte, 8+plen)...)
	p := buf[start+8:]
	p[0] = kind
	binary.LittleEndian.PutUint64(p[1:9], lsn)
	binary.LittleEndian.PutUint32(p[9:13], uint32(n))
	o := 13
	for i := range qs {
		if !qs[i].Op.IsDefining() {
			continue
		}
		p[o] = wireOp(&qs[i])
		binary.LittleEndian.PutUint64(p[o+1:o+9], uint64(qs[i].Key))
		binary.LittleEndian.PutUint64(p[o+9:o+17], uint64(qs[i].Value))
		o += 17
	}
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.Checksum(p, crcTable))
	return buf
}

// keepScratch caps the frame buffer a Log keeps between appends. A
// record of a 32 Ki-query batch of defines fits; the buffer of a rare
// larger one, such as a bulk prefill, is left to the collector rather
// than held for the life of the log.
const keepScratch = 1 << 20

// appendLocked writes one record, rotating segments as needed, and
// applies the per-record fsync policy.
func (l *Log) appendLocked(kind uint8, lsn uint64, qs []keys.Query) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		l.err = fmt.Errorf("wal: append after Close")
		return l.err
	}
	if l.segSize >= l.opts.SegmentSize {
		if err := l.rotateLocked(l.segSeq + 1); err != nil {
			return err
		}
	}
	frame := encodeFrame(l.scratch[:0], kind, lsn, qs)
	if cap(frame) <= keepScratch {
		l.scratch = frame
	}
	var start time.Time
	if l.appendNS != nil {
		start = l.metReg.Now()
	}
	if _, err := l.seg.Write(frame); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	if l.appendNS != nil {
		l.appendNS.Observe(l.metReg.Since(start))
	}
	l.segSize += int64(len(frame))
	if lsn > l.segMax[l.segSeq] {
		l.segMax[l.segSeq] = lsn
	}
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		l.syncLocked()
		return l.err
	}
	return nil
}

// CommitBatch appends one record holding the defines of qs (inserts,
// deletes, RMWs) in their order, under the next LSN, durable per the
// sync policy before it returns. A batch without defines changes no
// state: it appends nothing, takes no LSN and causes no fsync.
func (l *Log) CommitBatch(qs []keys.Query) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if countDefines(qs) == 0 {
		return l.err
	}
	lsn := l.next
	l.next++
	return l.appendLocked(kindBatch, lsn, qs)
}

// LastLSN returns the most recently assigned LSN (0 = none yet).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Err returns the sticky failure, if any: once an append or sync has
// failed the log is poisoned and every later operation returns the same
// error, so the engine stops acknowledging batches.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Sync forces an fsync of the current segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.syncLocked()
	return l.err
}

// TruncateObsolete removes closed segments made obsolete by a durable
// snapshot at snapLSN: the longest prefix of segments whose every
// record has lsn <= snapLSN. The current segment is rotated first so it
// can be collected too. Call only while no batch is in flight (the
// facade holds its snapshot gate).
func (l *Log) TruncateObsolete(snapLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.rotateLocked(l.segSeq + 1); err != nil {
		return err
	}
	names, err := l.fs.List(l.dir)
	if err != nil {
		return fmt.Errorf("wal: truncate list: %w", err)
	}
	for _, name := range names {
		seq, ok := parseSegName(name)
		if !ok || seq == l.segSeq {
			continue
		}
		max, known := l.segMax[seq]
		if !known || max > snapLSN {
			break // prefix only: keep everything from here on
		}
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			return fmt.Errorf("wal: truncate remove %s: %w", name, err)
		}
		delete(l.segMax, seq)
	}
	return nil
}

// Close fsyncs (a clean shutdown is not a crash, regardless of policy)
// and closes the current segment. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return l.err
	}
	l.closed = true
	if l.stop != nil {
		close(l.stop)
	}
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg != nil {
		if l.err == nil && l.dirty {
			if err := l.seg.Sync(); err != nil {
				l.err = fmt.Errorf("wal: close sync: %w", err)
			}
		}
		if err := l.seg.Close(); err != nil && l.err == nil {
			l.err = fmt.Errorf("wal: close: %w", err)
		}
		l.seg = nil
	}
	return l.err
}
