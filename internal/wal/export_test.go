package wal

import "repro/internal/keys"

// Record kinds of the per-shard commit protocol that logs written
// before the single batch record hold, for reader tests.
const (
	KindPart   = kindPart
	KindCommit = kindCommit
)

// AppendRecord appends one raw record of the given kind under lsn, the
// way a log of that older protocol was written: a part carrying one
// shard's defines, a commit marker carrying none.
func (l *Log) AppendRecord(kind uint8, lsn uint64, qs []keys.Query) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn >= l.next {
		l.next = lsn + 1
	}
	return l.appendLocked(kind, lsn, qs)
}
