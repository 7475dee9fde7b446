package core

import (
	"sort"

	"repro/internal/bsp"
	"repro/internal/keys"
	"repro/internal/stats"
)

// Transformer performs the parallel intra-batch QTrans of §V-A over a
// BSP pool:
//
//	Phase I:  the batch is partitioned into one contiguous mini-batch
//	          per worker; each worker stably sorts its mini-batch by key
//	          and runs sequential one-pass QSAT over it.
//	Phase II: the surviving queries are shuffled (merged) by key, the
//	          key space is split across workers along run boundaries
//	          with prefix-sum load balancing, and each worker runs QSAT
//	          again over every per-key sequence it owns.
//
// After Phase II at most one defining query and at most one
// representative search remain per distinct key. Inferred answers have
// already been written to the batch's ResultSet; representative
// searches that survive carry Router chains to broadcast once the tree
// answers them.
//
// A Transformer is reusable across batches but not concurrently.
type Transformer struct {
	pool *bsp.Pool
	// Router is exposed so the integration layer (Engine) can resolve
	// cache-served representatives and broadcast surviving ones.
	Router Router
	// CompareSort selects comparison sorting for the Phase-I
	// mini-batch sorts and the Phase-II shuffle instead of the default
	// radix sort (ablation).
	CompareSort bool

	emitters []*Emitter
	radix    []bsp.RadixScratch
	merged   []keys.Query
	out      []keys.Query
	reps     []int32
	inferred int
}

// NewTransformer creates a Transformer running on pool.
func NewTransformer(pool *bsp.Pool) *Transformer {
	t := &Transformer{pool: pool}
	t.emitters = make([]*Emitter, pool.N())
	t.radix = make([]bsp.RadixScratch, pool.N())
	return t
}

// Inferred reports how many search answers the last Transform produced
// by inference (without tree evaluation).
func (t *Transformer) Inferred() int { return t.inferred }

// Reps returns the surviving representative searches of the last
// Transform; after tree evaluation the caller must Broadcast each.
func (t *Transformer) Reps() []int32 { return t.reps }

// Transform runs both phases on the batch, writing inferred answers
// into rs and returning the reduced, stably key-sorted query sequence
// that still requires tree evaluation. The input slice is reordered in
// place (it becomes the Phase-I sort scratch). st may be nil.
//
// rs must have been Reset for the whole batch: the Router is sized by
// it, not by len(qs), because a scan batch hands in only its point
// queries, whose Idx values still span the full batch.
func (t *Transformer) Transform(qs []keys.Query, rs *keys.ResultSet, st *stats.Batch) []keys.Query {
	t.Router.Reset(rs.Len())
	t.reps = t.reps[:0]
	t.inferred = 0
	if len(qs) == 0 {
		return nil
	}

	var sw stats.Stopwatch
	if st != nil {
		sw = st.Timer(stats.StageQSAT1)
	}

	// Phase I: per-mini-batch sort + QSAT.
	nw := t.pool.N()
	n := len(qs)
	t.pool.Run(func(tid int) {
		lo, hi := bsp.SplitRange(tid, nw, n)
		mb := qs[lo:hi]
		if t.CompareSort {
			sortStable(mb)
		} else {
			t.radix[tid].RadixSortRun(mb)
		}
		e := t.emitters[tid]
		if e == nil {
			e = NewEmitter(&t.Router, rs)
			t.emitters[tid] = e
		} else {
			e.rs = rs
		}
		e.CollectReps = false
		e.Reset()
		QSATSequence(mb, e)
	})
	if st != nil {
		sw.Stop()
		sw = st.Timer(stats.StageQSAT2)
	}

	// Phase II: shuffle by key. The per-worker outputs are each sorted
	// by (key, original index); concatenating and re-sorting merges
	// them stably. Cross-mini-batch per-key order is preserved because
	// mini-batches are contiguous original ranges, so original indices
	// increase with mini-batch number.
	t.merged = t.merged[:0]
	for _, e := range t.emitters {
		if e != nil {
			t.merged = append(t.merged, e.Out...)
			t.inferred += e.Inferred
		}
	}
	if t.CompareSort {
		t.pool.SortQueries(t.merged)
	} else {
		t.pool.RadixSortQueries(t.merged)
	}

	// Split the merged sequence across workers along key-run
	// boundaries (a key's queries must stay on one worker, §V-A).
	bounds := runAlignedBounds(t.merged, nw)
	t.pool.Run(func(tid int) {
		lo, hi := bounds[tid], bounds[tid+1]
		e := t.emitters[tid]
		e.CollectReps = true
		e.Reset()
		QSATSequence(t.merged[lo:hi], e)
	})

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

// TransformSim runs the simulation-based elimination of §IV-E (the
// SimIntra mode): the unsorted batch is absorbed into a scratch hash
// map, then only the (much smaller) reduced stream is sorted. Like
// Transform it writes inferred answers into rs, records surviving
// representatives for Broadcast, and returns the reduced, stably
// key-sorted sequence. st may be nil.
func (t *Transformer) TransformSim(qs []keys.Query, rs *keys.ResultSet, st *stats.Batch) []keys.Query {
	t.Router.Reset(rs.Len())
	t.reps = t.reps[:0]
	t.inferred = 0
	if len(qs) == 0 {
		return nil
	}

	var sw stats.Stopwatch
	if st != nil {
		sw = st.Timer(stats.StageQSAT1)
	}
	remaining, reps, inferred := SimQSAT(qs, &t.Router, rs)
	t.inferred += inferred
	t.reps = append(t.reps, reps...)
	if st != nil {
		sw.Stop()
		sw = st.Timer(stats.StageQSAT2)
	}

	if t.CompareSort {
		t.pool.SortQueries(remaining)
	} else {
		t.pool.RadixSortQueries(remaining)
	}
	if st != nil {
		sw.Stop()
		st.InferredReturns += inferred
	}
	return remaining
}

// Broadcast fans each surviving representative's evaluated result out
// to its chain. Call after the reduced batch has been evaluated.
func (t *Transformer) Broadcast(rs *keys.ResultSet) {
	for _, rep := range t.reps {
		t.Router.Broadcast(rs, rep)
	}
}

// sortStable stably key-sorts a mini-batch. Sorting by (Key, Idx) with
// an unstable sort is equivalent because original indices are unique.
func sortStable(qs []keys.Query) {
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].Key != qs[j].Key {
			return qs[i].Key < qs[j].Key
		}
		return qs[i].Idx < qs[j].Idx
	})
}

// runAlignedBounds returns nw+1 boundaries splitting qs into nw chunks
// of near-equal length whose edges never split a same-key run.
func runAlignedBounds(qs []keys.Query, nw int) []int {
	bounds := make([]int, nw+1)
	n := len(qs)
	for t := 1; t < nw; t++ {
		b := t * n / nw
		// Advance past the current run.
		for b > 0 && b < n && qs[b].Key == qs[b-1].Key {
			b++
		}
		if b < bounds[t-1] {
			b = bounds[t-1]
		}
		bounds[t] = b
	}
	bounds[nw] = n
	return bounds
}
