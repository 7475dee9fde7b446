package core

import "repro/internal/keys"

// Emitter receives the output of one-pass QSAT: the reduced query list
// plus bookkeeping for inferred and deferred search answers.
type Emitter struct {
	// Out accumulates the queries that still need evaluation: at most
	// one representative search and one defining query per key.
	Out []keys.Query
	// Reps accumulates surviving representative searches whose chains
	// must be broadcast after evaluation.
	Reps []int32
	// Inferred counts answers produced without tree evaluation.
	Inferred int

	router  *Router
	rs      *keys.ResultSet
	pending []int32 // scratch reused across runs
}

// NewEmitter returns an emitter writing answers through router into rs.
func NewEmitter(router *Router, rs *keys.ResultSet) *Emitter {
	return &Emitter{router: router, rs: rs}
}

// Reset clears the emitter's accumulated output for a new batch.
func (e *Emitter) Reset() {
	e.Out = e.Out[:0]
	e.Reps = e.Reps[:0]
	e.Inferred = 0
}

// resolve delivers the answer implied by defining query d to the search
// at original index idx (and its chain): an insert defines (value,
// found); a delete defines (absent).
func (e *Emitter) resolve(idx int32, d keys.Query) {
	if d.Op == keys.OpInsert {
		e.Inferred += e.router.Resolve(e.rs, idx, d.Value, true)
	} else {
		e.Inferred += e.router.Resolve(e.rs, idx, 0, false)
	}
}

// resolveVal delivers an explicit (value, found) answer to the search
// at original index idx (and its chain).
func (e *Emitter) resolveVal(idx int32, v keys.Value, found bool) {
	e.Inferred += e.router.Resolve(e.rs, idx, v, found)
}

// QSATRun applies one-pass QSAT to one maximal same-key run of a
// stably key-sorted sequence. Runs without read-modify-write queries
// take the backward sweep of Algorithm 2 (qsatRunPoint); runs
// containing RMW take the forward state simulation (qsatRunRMW), which
// generalizes the same algebra to use+define queries. Scans never
// appear in runs: the engine splits them out before transformation.
func QSATRun(run []keys.Query, e *Emitter) {
	for i := range run {
		if run[i].Op == keys.OpRMW {
			qsatRunRMW(run, e)
			return
		}
	}
	qsatRunPoint(run, e)
}

// qsatRunPoint is the one-pass QSAT of Algorithm 2, applied to one
// maximal same-key run of point queries. It traverses the run
// backwards:
//
//   - a search query is held pending;
//   - a defining query answers all pending searches by inference
//     (INFER_AND_RETURN) — an insert supplies its value, a delete
//     supplies "absent" — and the last defining query of the run (the
//     first one met walking backwards) survives as q_o;
//   - searches still pending after the sweep precede every defining
//     query; they are collapsed into one representative search
//     (SEARCH_AND_RETURN) whose eventual tree answer is broadcast to
//     the rest via the Router.
//
// The run's surviving queries are appended to e.Out in (key, original
// index) order: representative search first, then q_o.
func qsatRunPoint(run []keys.Query, e *Emitter) {
	var qo keys.Query
	haveQo := false
	// pending collects the original indices of searches not yet
	// answered, in backward-walk (reverse) order.
	pending := e.pending[:0]
	defer func() { e.pending = pending[:0] }()

	for i := len(run) - 1; i >= 0; i-- {
		q := run[i]
		if q.Op == keys.OpSearch {
			pending = append(pending, q.Idx)
			continue
		}
		// Defining query: answer pending searches by inference.
		for _, idx := range pending {
			e.resolve(idx, q)
		}
		pending = pending[:0]
		if !haveQo {
			qo = q
			haveQo = true
		}
	}

	if len(pending) > 0 {
		// Leading searches: no defining query precedes them in the
		// batch. Collapse onto the earliest (pending is in reverse
		// order, so the last element is the earliest search).
		rep := pending[len(pending)-1]
		for i := len(pending) - 2; i >= 0; i-- {
			e.router.Append(rep, pending[i])
		}
		e.Out = append(e.Out, keys.Query{Op: keys.OpSearch, Key: run[0].Key, Idx: rep})
		e.Reps = append(e.Reps, rep)
	}
	if haveQo {
		e.Out = append(e.Out, qo)
	}
}

// runState tracks what the forward RMW simulation knows about the
// run's key at the current point in batch order.
type runState uint8

const (
	// stUnknown: nothing in the run has touched the key yet — reads
	// see the pre-batch tree state.
	stUnknown runState = iota
	// stPresent: the key is present with a known value.
	stPresent
	// stAbsent: the key is known to be absent.
	stAbsent
	// stPresentUnknownVal: the key is present but its value depends on
	// the pre-batch tree state (a surviving RMW wrote old+delta or
	// set-if-absent over unknown state). Both RMW kinds leave the key
	// present, which is what makes this state sound.
	stPresentUnknownVal
)

// qsatRunRMW generalizes QSAT to same-key runs containing RMW queries
// via a forward state simulation (RMW is both use and define, so the
// backward sweep's "last define wins" shortcut no longer applies):
//
//   - leading searches (state unknown) collapse onto one representative
//     answered from the pre-batch tree in Stage 1, exactly as in
//     Algorithm 2 — the representative precedes every surviving
//     define/RMW in original order, so emitting it first keeps the
//     output in batch order;
//   - once the state is known (after an insert or delete), searches and
//     RMWs resolve by inference and RMW effects fold into the state;
//   - an RMW over unknown state survives (its result needs the tree)
//     and moves the state to stPresentUnknownVal; subsequent searches
//     survive tagged LeafAnswer so Stage 2 answers them at the leaf
//     after applying that RMW;
//   - at run end, a known final state with at least one define emits
//     one synthesized final define (the only tree write the run needs).
//
// Emission is in ascending original-index order: representative <
// survivors < synthesized define (once the state becomes known it
// stays known, so every survivor precedes the last define).
func qsatRunRMW(run []keys.Query, e *Emitter) {
	st := stUnknown
	var val keys.Value
	pending := e.pending[:0]
	defer func() { e.pending = pending[:0] }()
	var lastDefIdx int32
	defined := false

	// flushPending collapses the leading searches onto the earliest as
	// representative; called before the first define/RMW is emitted or
	// folded, and once more at run end for all-search runs.
	flushPending := func() {
		if len(pending) == 0 {
			return
		}
		rep := pending[0]
		for _, other := range pending[1:] {
			e.router.Append(rep, other)
		}
		e.Out = append(e.Out, keys.Query{Op: keys.OpSearch, Key: run[0].Key, Idx: rep})
		e.Reps = append(e.Reps, rep)
		pending = pending[:0]
	}

	for i := range run {
		q := run[i]
		switch q.Op {
		case keys.OpSearch:
			switch st {
			case stUnknown:
				pending = append(pending, q.Idx)
			case stPresent:
				e.resolveVal(q.Idx, val, true)
			case stAbsent:
				e.resolveVal(q.Idx, 0, false)
			case stPresentUnknownVal:
				q.LeafAnswer = true
				e.Out = append(e.Out, q)
				e.Reps = append(e.Reps, q.Idx)
			}
		case keys.OpInsert:
			flushPending()
			st, val = stPresent, q.Value
			lastDefIdx, defined = q.Idx, true
		case keys.OpDelete:
			flushPending()
			st, val = stAbsent, 0
			lastDefIdx, defined = q.Idx, true
		case keys.OpRMW:
			flushPending()
			switch st {
			case stPresent:
				e.resolveVal(q.Idx, val, true)
				if q.RMW == keys.RMWAdd {
					val += q.Value
				}
				lastDefIdx, defined = q.Idx, true
			case stAbsent:
				e.resolveVal(q.Idx, 0, false)
				val = q.Value // old+delta with old=0, or set-if-absent
				st = stPresent
				lastDefIdx, defined = q.Idx, true
			default: // unknown pre-batch state: the RMW survives
				q.LeafAnswer = false
				e.Out = append(e.Out, q)
				st = stPresentUnknownVal
			}
		}
	}
	flushPending()

	if defined && st == stPresent {
		e.Out = append(e.Out, keys.Query{Op: keys.OpInsert, Key: run[0].Key, Value: val, Idx: lastDefIdx})
	} else if defined && st == stAbsent {
		e.Out = append(e.Out, keys.Query{Op: keys.OpDelete, Key: run[0].Key, Idx: lastDefIdx})
	}
}

// QSATSequence applies one-pass QSAT to an entire stably key-sorted
// sequence, returning the reduced sequence via e.Out. This is the
// sequential QSAT each Transformer worker runs over its run-aligned
// slice of the sorted batch (and usable standalone).
func QSATSequence(qs []keys.Query, e *Emitter) {
	keys.KeyRuns(qs, func(lo, hi int) {
		QSATRun(qs[lo:hi], e)
	})
}
