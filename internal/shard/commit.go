package shard

import (
	"sync"

	"repro/internal/keys"
)

// Committer is the durability hook (DESIGN.md §7). The engine is the
// one commit point for every shard count: before any shard sees a
// batch, CommitBatch gets the whole batch in batch order and appends
// one record of its defines (inserts, deletes, RMWs); a batch without
// defines appends nothing. The scheduling gate is taken before the
// append and held until the batch is applied, so a snapshot taken under
// the exclusive gate covers every appended batch. wal.Log implements
// this interface.
//
// A non-nil error poisons the engine: the failing batch and every
// later one are dropped unapplied (state never runs ahead of the log),
// and CommitErr reports the failure.
type Committer interface {
	CommitBatch(qs []keys.Query) error
}

// SetCommitter installs (or, with nil, removes) the durability hook.
// Must not be called while batches are in flight.
func (e *Engine) SetCommitter(c Committer) { e.committer = c }

// SetGate installs the scheduling gate: every batch holds gate.RLock
// from its append until it is applied (in a stream, until it is
// emitted), so a writer (snapshot, Train, the autoshard controller)
// acquiring gate.Lock observes all shards exactly at a batch boundary,
// with every appended batch applied. Must not be called while batches
// are in flight.
func (e *Engine) SetGate(gate *sync.RWMutex) { e.gate = gate }

// CommitErr reports the sticky commit failure, if any. Once set, every
// later batch is dropped unapplied.
func (e *Engine) CommitErr() error {
	e.cmu.Lock()
	defer e.cmu.Unlock()
	return e.commitErr
}

// commit logs one batch ahead of its application and reports whether
// the batch may be applied. The caller holds the gate. Commits run on
// one goroutine at a time (ProcessBatch's caller, or the stream
// dispatcher), in batch order.
func (e *Engine) commit(qs []keys.Query) bool {
	if e.CommitErr() != nil {
		return false
	}
	if e.committer == nil {
		return true
	}
	if err := e.committer.CommitBatch(qs); err != nil {
		e.cmu.Lock()
		e.commitErr = err
		e.cmu.Unlock()
		return false
	}
	return true
}

// rlock and runlock take and release the gate's shared side, when a
// gate is installed.
func (e *Engine) rlock() {
	if e.gate != nil {
		e.gate.RLock()
	}
}

func (e *Engine) runlock() {
	if e.gate != nil {
		e.gate.RUnlock()
	}
}
