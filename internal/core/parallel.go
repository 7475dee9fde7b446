package core

import (
	"repro/internal/bsp"
	"repro/internal/keys"
	"repro/internal/stats"
)

// Transformer performs the parallel intra-batch QTrans over a BSP
// pool. It sorts the batch once, stably by key, then splits the sorted
// batch across workers along key-run boundaries (a key's queries must
// stay on one worker) and runs sequential one-pass QSAT (Algorithm 2)
// over each worker's slice. This replaces the paper's two-phase §V-A
// (per-mini-batch sort + QSAT, then shuffle, re-sort and QSAT again):
// one-pass QSAT needs nothing more than one stably key-sorted batch.
//
// Afterwards at most one defining query and at most one representative
// search remain per distinct key. Inferred answers have already been
// written to the batch's ResultSet; representative searches that
// survive carry Router chains to broadcast once the tree answers them.
//
// A Transformer is reusable across batches but not concurrently.
type Transformer struct {
	pool *bsp.Pool
	// Router is exposed so the integration layer (Engine) can resolve
	// cache-served representatives and broadcast surviving ones.
	Router Router

	emitters []*Emitter
	out      []keys.Query
	reps     []int32
	inferred int

	// The QSAT superstep and what it reads: built once, so a batch
	// hands the pool no new closure.
	qsatStep func(tid int)
	batch    []keys.Query
	rs       *keys.ResultSet
	bounds   []int
}

// NewTransformer creates a Transformer running on pool.
func NewTransformer(pool *bsp.Pool) *Transformer {
	t := &Transformer{pool: pool, bounds: make([]int, pool.N()+1)}
	t.emitters = make([]*Emitter, pool.N())
	for i := range t.emitters {
		t.emitters[i] = NewEmitter(&t.Router, nil)
	}
	t.qsatStep = func(tid int) {
		e := t.emitters[tid]
		e.rs = t.rs
		e.Reset()
		QSATSequence(t.batch[t.bounds[tid]:t.bounds[tid+1]], e)
	}
	return t
}

// Inferred reports how many search answers the last Transform produced
// by inference (without tree evaluation).
func (t *Transformer) Inferred() int { return t.inferred }

// Reps returns the surviving representative searches of the last
// Transform; after tree evaluation the caller must Broadcast each.
func (t *Transformer) Reps() []int32 { return t.reps }

// Transform sorts the batch in place and runs one QSAT pass over it,
// writing inferred answers into rs and returning the reduced, stably
// key-sorted query sequence that still requires tree evaluation. On
// return qs holds the whole batch, stably sorted by (Key, Idx). The
// sort is timed as StageQSAT1 and the QSAT pass as StageQSAT2. st may
// be nil.
//
// rs must have been Reset for the whole batch: the Router is sized by
// it, not by len(qs), because a scan batch hands in only its point
// queries, whose Idx values still span the full batch.
func (t *Transformer) Transform(qs []keys.Query, rs *keys.ResultSet, st *stats.Batch) []keys.Query {
	if len(qs) > 0 {
		var sw stats.Stopwatch
		if st != nil {
			sw = st.Timer(stats.StageQSAT1)
		}
		t.sort(qs)
		if st != nil {
			sw.Stop()
		}
	}
	return t.reduce(qs, rs, st)
}

// reduce is Transform's QSAT pass over the already key-sorted qs.
func (t *Transformer) reduce(qs []keys.Query, rs *keys.ResultSet, st *stats.Batch) []keys.Query {
	t.Router.Reset(rs.Len())
	t.reps = t.reps[:0]
	t.inferred = 0
	if len(qs) == 0 {
		return nil
	}

	var sw stats.Stopwatch
	if st != nil {
		sw = st.Timer(stats.StageQSAT2)
	}
	runAlignedBounds(qs, t.bounds)
	t.batch, t.rs = qs, rs
	t.pool.Run(t.qsatStep)
	t.batch, t.rs = nil, nil

	t.out = t.out[:0]
	for _, e := range t.emitters {
		t.out = append(t.out, e.Out...)
		t.reps = append(t.reps, e.Reps...)
		t.inferred += e.Inferred
	}
	if st != nil {
		sw.Stop()
		st.InferredReturns += t.inferred
	}
	return t.out
}

// sort stably key-sorts qs in place on the transformer's pool by radix
// sort. It is the only sort core runs on a batch before the tree.
func (t *Transformer) sort(qs []keys.Query) { t.pool.RadixSortQueries(qs) }

// Broadcast fans each surviving representative's evaluated result out
// to its chain. Call after the reduced batch has been evaluated.
func (t *Transformer) Broadcast(rs *keys.ResultSet) {
	for _, rep := range t.reps {
		t.Router.Broadcast(rs, rep)
	}
}

// runAlignedBounds fills bounds (nw+1 entries) with the boundaries
// splitting the key-sorted qs into nw chunks of near-equal length whose
// edges never split a same-key run, and returns it. It is QTrans's only
// load-balancing rule: a run longer than len(qs)/nw stays whole on one
// worker, and every chunk takes at least one run while any are left, so
// with fewer runs than workers only the trailing chunks are empty.
func runAlignedBounds(qs []keys.Query, bounds []int) []int {
	nw := len(bounds) - 1
	bounds[0] = 0
	n := len(qs)
	for t := 1; t < nw; t++ {
		b := max(t*n/nw, bounds[t-1]+1)
		// Advance past the current run.
		for b < n && qs[b].Key == qs[b-1].Key {
			b++
		}
		bounds[t] = min(b, n)
	}
	bounds[nw] = n
	return bounds
}
