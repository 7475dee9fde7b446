package tier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/shard"
	"repro/internal/stats"
)

// BatchLogger is the durability hook for promotions: a promoted run's
// pairs are logged as one insert batch and synced before the manifest
// flips the range hot, so a crash at any later point replays them
// (wal.Log satisfies this).
type BatchLogger interface {
	CommitBatch(qs []keys.Query) error
	Sync() error
}

// Engine wraps a shard engine with the tier store (DESIGN.md §14):
// it classifies each batch against the residency map, faults cold
// ranges back in when writes, RMWs, or scans touch them, answers cold
// point searches straight from their runs, and performs at most
// MaxActions bounded demotions per batch boundary while the resident
// tree exceeds the budget — all through the scheduling gate, so
// serving never pauses for longer than one bounded action.
//
// Like the engines it wraps, Engine is single-caller: ProcessBatch and
// ProcessStream must not run concurrently with each other or
// themselves. Queries must be numbered (Query.Idx = batch position,
// keys.Number) before ProcessBatch, which the qtrans layer does.
type Engine struct {
	// inner is the wrapped engine; its range primitives (shard/tier.go)
	// are called only at batch boundaries under the scheduling gate.
	inner *shard.Engine
	store *Store
	gate  *sync.RWMutex
	log   BatchLogger
	// MaxActions bounds the demotions applied at one batch boundary.
	maxActions int

	// err is the sticky tier failure, mirroring the committer poison
	// contract: once a promotion, demotion, or run read fails, the
	// failing batch and every later one are dropped unapplied.
	err atomic.Value

	// Per-batch scratch, reused across batches.
	cold       []Range
	promote    []string
	coldSearch []int
	coldKeys   []keys.Key
}

// NewEngine wraps inner with the tier store. maxActions <= 0 defaults
// to one action per batch boundary.
func NewEngine(inner *shard.Engine, store *Store, maxActions int) *Engine {
	if maxActions <= 0 {
		maxActions = 1
	}
	return &Engine{inner: inner, store: store, maxActions: maxActions}
}

// SetGate installs the scheduling gate shared with the inner engine
// and the snapshot/autoshard paths. Tier maintenance, promotion, and
// the merged scan hold it exclusively; the inner engine holds it
// shared per batch. Must not be called while batches are in flight.
func (e *Engine) SetGate(g *sync.RWMutex) { e.gate = g }

// SetLogger installs the durability hook for promotions (nil when
// durability is off). Must not be called while batches are in flight.
func (e *Engine) SetLogger(l BatchLogger) { e.log = l }

// Store returns the tier store.
func (e *Engine) Store() *Store { return e.store }

// Err reports the sticky tier failure, if any.
func (e *Engine) Err() error {
	if err, ok := e.err.Load().(error); ok {
		return err
	}
	return nil
}

func (e *Engine) fail(err error) {
	if e.Err() == nil {
		e.err.Store(err)
	}
}

func (e *Engine) lock() {
	if e.gate != nil {
		e.gate.Lock()
	}
}

func (e *Engine) unlock() {
	if e.gate != nil {
		e.gate.Unlock()
	}
}

// addPromote records a run for promotion, deduplicating.
func (e *Engine) addPromote(run string) {
	for _, r := range e.promote {
		if r == run {
			return
		}
	}
	e.promote = append(e.promote, run)
}

// ProcessBatch evaluates one batch with tier faulting: cold ranges
// touched by writes, RMWs, or scans are promoted before the batch
// executes; cold point searches are answered from their runs without
// promotion (unless Config.PromoteReads); everything else runs on the
// inner engine unchanged. After the batch, one bounded maintenance
// step may demote.
func (e *Engine) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	if e.Err() != nil {
		return
	}

	// Classify: which cold ranges must fault in, which searches can be
	// served from disk. Every access also feeds the heat histogram the
	// demotion policy reads.
	e.promote = e.promote[:0]
	e.coldSearch = e.coldSearch[:0]
	promoteReads := e.store.PromoteReads()
	for i := range qs {
		q := &qs[i]
		e.store.RecordAccess(q.Key)
		switch q.Op {
		case keys.OpSearch:
			if r := e.store.At(q.Key); r.State == Cold {
				if promoteReads {
					e.addPromote(r.Run)
				} else {
					e.coldSearch = append(e.coldSearch, i)
				}
			}
		case keys.OpInsert, keys.OpDelete, keys.OpRMW:
			if r := e.store.At(q.Key); r.State == Cold {
				e.addPromote(r.Run)
			}
		case keys.OpScan:
			if q.Key2 > q.Key { // non-empty scan; Key2 is exclusive
				e.cold = e.store.ColdOverlapping(e.cold[:0], q.Key, q.Key2-1)
				for _, cr := range e.cold {
					e.addPromote(cr.Run)
				}
			}
		}
	}

	if len(e.promote) > 0 {
		e.lock()
		err := e.promoteAll()
		e.unlock()
		if err != nil {
			e.fail(err)
			return
		}
	}

	if len(e.coldSearch) == 0 {
		e.inner.ProcessBatch(qs, rs)
	} else if err := e.processWithColdSearches(qs, rs); err != nil {
		e.fail(err)
		return
	}

	e.store.DecayHeat()
	e.lock()
	err := e.maintain()
	e.store.SetResident(int64(e.inner.StoredLen()))
	e.unlock()
	if err != nil {
		e.fail(err)
	}
}

// processWithColdSearches answers the batch's cold point searches from
// their runs and runs everything else on the inner engine. The QSAT
// router chains results by batch position, so the batch must stay
// dense: instead of dropping the cold searches, each is rewritten in
// place to a search for the top key — always hot by the residency
// invariant — which executes as an ordinary query whose true answer is
// simply overwritten below from the run lookup. The rewrite is sound
// because a still-cold search's key cannot be written by this batch (a
// write, RMW, or overlapping scan would have promoted its range before
// execution), so the run's value is the key's value for the whole
// batch; and a search whose range WAS promoted this batch is hot again
// and is left to the inner engine untouched.
func (e *Engine) processWithColdSearches(qs []keys.Query, rs *keys.ResultSet) error {
	served := e.coldSearch[:0]
	e.coldKeys = e.coldKeys[:0]
	for _, i := range e.coldSearch {
		if e.store.At(qs[i].Key).State != Cold {
			continue
		}
		served = append(served, i)
		e.coldKeys = append(e.coldKeys, qs[i].Key)
		qs[i].Key = maxKey
	}
	e.coldSearch = served
	e.inner.ProcessBatch(qs, rs)
	// qs may have been reordered in place by the transform; the
	// original batch position (== Idx, queries are numbered on entry)
	// addresses the caller's result slot.
	for j, i := range served {
		v, found, err := e.store.Lookup(e.coldKeys[j])
		if err != nil {
			return err
		}
		rs.Set(int32(i), v, found)
	}
	return nil
}

// promoteAll faults in every range queued in e.promote. Caller holds
// the gate. Per run: read and verify the pairs, log+sync them (so the
// effect survives a crash after the manifest flip), commit the
// manifest hot, then insert into the tree. A crash between log and
// manifest leaves the range cold and the logged batch replays into it
// — recovery's purge of cold ranges makes that consistent (the run
// still holds the same values; DESIGN.md §14).
func (e *Engine) promoteAll() error {
	for _, name := range e.promote {
		ks, vs, err := e.store.RunPairs(name)
		if err != nil {
			return err
		}
		if e.log != nil && len(ks) > 0 {
			lq := make([]keys.Query, len(ks))
			for i := range ks {
				lq[i] = keys.Insert(ks[i], vs[i])
			}
			if err := e.log.CommitBatch(lq); err != nil {
				return fmt.Errorf("tier: promote log: %w", err)
			}
			if err := e.log.Sync(); err != nil {
				return fmt.Errorf("tier: promote sync: %w", err)
			}
		}
		if err := e.store.CommitPromote(name); err != nil {
			return err
		}
		e.inner.InsertPairs(ks, vs)
	}
	return nil
}

// maintain demotes while the resident tree exceeds the budget, at most
// maxActions ranges per batch boundary. Caller holds the gate.
func (e *Engine) maintain() error {
	budget := e.store.MaxResident()
	if budget <= 0 {
		return nil
	}
	for a := 0; a < e.maxActions && e.inner.StoredLen() > budget; a++ {
		acted, err := e.demoteOne()
		if err != nil {
			return err
		}
		if !acted {
			return nil
		}
	}
	return nil
}

// demoteOne spills the coldest non-empty victim range: drain the
// caches for it, dump its pairs (clipping to the run cap), sync the
// log so every batch whose effects the dump holds is durable, write
// the run + manifest, then delete the range from the tree. A failure
// before the manifest commit is a clean abort (the range stays hot).
func (e *Engine) demoteOne() (bool, error) {
	for _, c := range e.store.Victims(0) {
		e.inner.DrainCacheRange(c.Lo, c.Hi+1) // c.Hi < maxKey by construction
		ks, vs, more := e.inner.RangeDump(c.Lo, c.Hi, e.store.RunKeys())
		if len(ks) == 0 {
			continue // empty victim: nothing to spill, try the next
		}
		lo, hi := c.Lo, c.Hi
		if more {
			// The run cap truncated the dump: shrink the cold range to
			// what the run actually holds.
			hi = ks[len(ks)-1]
		}
		if e.log != nil {
			if err := e.log.Sync(); err != nil {
				return false, fmt.Errorf("tier: demote sync: %w", err)
			}
		}
		if err := e.store.Demote(lo, hi, ks, vs); err != nil {
			return false, err
		}
		e.inner.DeleteRange(lo, hi)
		return true, nil
	}
	return false, nil
}

// ProcessStream serializes the stream through ProcessBatch: tier
// classification and maintenance need exclusive batch boundaries, so
// the tiered path trades the two-stage pipeline overlap away.
func (e *Engine) ProcessStream(in <-chan *core.Job, emit func(*core.Job)) {
	rs := keys.NewResultSet(0)
	for j := range in {
		if j.RS == nil {
			j.RS = rs
		}
		j.RS.Reset(len(j.Qs))
		e.ProcessBatch(j.Qs, j.RS)
		emit(j)
	}
}

// PurgeCold removes every cold range's keys from the inner engine —
// the recovery reconciliation step (DESIGN.md §14): replaying the full
// log re-creates keys that were later demoted, so after replay the
// manifest's cold ranges are drained from cache and tree and their
// runs stay authoritative. While a range is cold no batch writes to it
// (a write would have promoted it first, logging the run's pairs), so
// the purged tree state and the run agree.
func (e *Engine) PurgeCold() {
	e.lock()
	defer e.unlock()
	for _, r := range e.store.Residency().Ranges() {
		if r.State != Cold {
			continue
		}
		// Cold ranges never reach the top key (residency.go rejects
		// them), so Hi+1 cannot overflow.
		e.inner.DrainCacheRange(r.Lo, r.Hi+1)
		e.inner.DeleteRange(r.Lo, r.Hi)
	}
}

// Flush delegates to the inner engine.
func (e *Engine) Flush() { e.inner.Flush() }

// Train forwards hot keys to the inner engine's cache, filtering out
// keys in cold ranges: training a cold key would admit a clean
// "absent" cache entry for a key the run actually stores.
func (e *Engine) Train(hot []keys.Key) {
	filtered := make([]keys.Key, 0, len(hot))
	for _, k := range hot {
		if e.store.At(k).State == Hot {
			filtered = append(filtered, k)
		}
	}
	e.inner.Train(filtered)
}

// Stats returns the inner engine's last-batch statistics.
func (e *Engine) Stats() *stats.Batch { return e.inner.Stats() }

// Close shuts down the inner engine.
func (e *Engine) Close() { e.inner.Close() }

// Len returns the logical store size: resident pairs plus cold pairs.
func (e *Engine) Len() int {
	e.lock()
	defer e.unlock()
	e.inner.Flush()
	n := e.inner.StoredLen()
	for _, r := range e.store.runs {
		n += r.Count
	}
	return n
}

// Scan visits every logical pair in ascending key order — hot ranges
// from the tree, cold ranges from their runs — until fn returns false.
// A run read failure poisons the engine (see Err) and is returned.
func (e *Engine) Scan(fn func(k keys.Key, v keys.Value) bool) error {
	e.lock()
	defer e.unlock()
	if err := e.scanLocked(fn); err != nil {
		e.fail(err)
		return err
	}
	return nil
}

// scanLocked is Scan's body; the caller holds the gate exclusively.
func (e *Engine) scanLocked(fn func(k keys.Key, v keys.Value) bool) error {
	e.inner.Flush()
	const chunk = 4096
	for _, rr := range e.store.Residency().Ranges() {
		if rr.State == Cold {
			ks, vs, err := e.store.RunPairs(rr.Run)
			if err != nil {
				return err
			}
			for i := range ks {
				if !fn(ks[i], vs[i]) {
					return nil
				}
			}
			continue
		}
		lo := rr.Lo
		for {
			ks, vs, more := e.inner.RangeDump(lo, rr.Hi, chunk)
			for i := range ks {
				if !fn(ks[i], vs[i]) {
					return nil
				}
			}
			if !more {
				break
			}
			lo = ks[len(ks)-1] + 1
		}
	}
	return nil
}

// DumpLocked returns every logical pair in ascending key order,
// materializing cold runs (the portable-save path). The caller must
// hold the scheduling gate exclusively — qtrans.Save does.
func (e *Engine) DumpLocked() (ks []keys.Key, vs []keys.Value, err error) {
	err = e.scanLocked(func(k keys.Key, v keys.Value) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	if err != nil {
		e.fail(err)
	}
	return ks, vs, err
}
