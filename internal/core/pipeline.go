package core

import (
	"time"

	"repro/internal/bsp"
	"repro/internal/keys"
	"repro/internal/stats"
)

// This file implements two-stage pipelined stream execution: the
// intra-batch QTrans transform of batch N+1 overlaps the PALM tree
// stages of batch N.
//
// Stage split. Every batch runs one transform/apply pair (engine.go).
// transform — scan split, sort, QSAT — touches only the batch itself,
// its plan's Transformer/Router and overlay, and the batch's ResultSet:
// never the tree or the inter-batch cache. apply — scan pass, cache
// pass, PALM stages, broadcast — touches shared state. ProcessBatch
// calls the pair back to back; a pipelined stream splits it:
//
//	stage A: transform on a second BSP pool, one batch ahead, into a
//	    per-slot plan.
//	stage B: apply on the engine's own pool, strictly in batch order.
//
// Handoff rule (the correctness hinge, DESIGN.md §4.6): the top-K cache
// is read and written ONLY in stage B. Stage A never consults the
// cache, so the transform of batch N+1 can run while batch N is still
// mutating cache and tree; batch N+1's cache pass starts only after
// batch N's evaluation has committed. Because QTrans's intra-batch
// transform is independent of tree and cache state, the observable
// semantics — results, final tree, flushed cache, per-batch counters —
// are identical to serial execution. The differential and parity tests
// in pipeline_test.go verify exactly that.
//
// Two slots are enough: one batch transforming, one batch in the tree.
// Each slot owns a plan (a Transformer bound to the transform pool, a
// scan overlay, a stats block) and a lendable ResultSet, so
// steady-state streaming allocates nothing.

// Job is one batch travelling through ProcessStream. Qs is reordered in
// place by the transform. If RS is nil the stream points it at a
// recycled ResultSet that is valid only until the emit callback
// returns; callers that keep results longer must supply their own RS
// (distinct per in-flight job), and callers that recycle Job structs
// must reset RS (to nil or their own set) before resubmitting. The
// stream never touches a Job after handing it to emit — ownership
// returns to the caller at that instant, so recycling a Job from
// inside the emit callback is race-free. Tag is opaque correlation
// state for the caller.
type Job struct {
	Qs []keys.Query
	RS *keys.ResultSet
	// Tag carries caller state (e.g. completion futures) through the
	// pipeline untouched.
	Tag any
}

// pipeSlot is one stage-A workspace. Ownership alternates between the
// stages via channels: stage A fills it, stage B drains it.
type pipeSlot struct {
	batchPlan
	rs  *keys.ResultSet
	job *Job
}

// initPipeline lazily builds the transform pool and the double-buffered
// slots. Called from ProcessStream only (single-caller, like Run).
func (e *Engine) initPipeline() {
	if e.tfPool != nil {
		return
	}
	e.tfPool = bsp.NewPool(e.pool.N())
	e.slots = make([]*pipeSlot, 2)
	for i := range e.slots {
		e.slots[i] = &pipeSlot{
			batchPlan: e.newPlan(e.tfPool, stats.NewBatch(e.tfPool.N())),
			rs:        keys.NewResultSet(0),
		}
	}
}

// ProcessStream consumes batches from in until it is closed, processing
// each with semantics identical to calling ProcessBatch in arrival
// order, and hands every finished job to emit (in order). With
// EngineConfig.Pipeline set, the transform of the next batch overlaps
// the tree stages of the current one; otherwise batches run serially.
//
// ProcessStream must not be called concurrently with itself or with
// ProcessBatch. Stats() reflects the most recently tree-staged batch.
func (e *Engine) ProcessStream(in <-chan *Job, emit func(*Job)) {
	if !e.cfg.Pipeline {
		rs := keys.NewResultSet(0)
		for job := range in {
			if job.RS == nil {
				job.RS = rs
			}
			job.RS.Reset(len(job.Qs))
			e.ProcessBatch(job.Qs, job.RS)
			emit(job)
		}
		return
	}

	e.initPipeline()
	free := make(chan *pipeSlot, len(e.slots))
	for _, s := range e.slots {
		free <- s
	}
	handoff := make(chan *pipeSlot, 1)

	// Stage A: transform each job into a free slot's plan on the
	// transform pool, writing inferred answers into the job's ResultSet.
	// No tree or cache access happens here.
	go func() {
		for job := range in {
			slot := <-free
			slot.job = job
			if job.RS == nil {
				job.RS = slot.rs
			}
			job.RS.Reset(len(job.Qs))
			slot.st.Reset()
			slot.st.BatchSize = len(job.Qs)
			if len(job.Qs) > 0 {
				e.transform(&slot.batchPlan, job.Qs, job.RS)
			}
			handoff <- slot
		}
		close(handoff)
	}()

	// Stage B: apply each slot on the engine's pool, strictly in batch
	// order, so the cache pass runs in arrival order even though
	// transforms overlap (the handoff rule). The engine's Stats() block is rebuilt from the slot's
	// transform timings plus apply's own. With metrics on, the batch
	// wall is this stage's wall: the transform overlapped the previous
	// batch, and its time is already in the slot's stage timings.
	for slot := range handoff {
		var start time.Time
		if e.met != nil {
			start = e.met.reg.Now()
		}
		e.st.Reset()
		slot.st.AddTo(e.st)
		if len(slot.job.Qs) > 0 {
			e.apply(&slot.batchPlan, slot.job.RS)
		}
		if e.met != nil {
			e.met.recordBatch(e.st, e.met.reg.Since(start))
		}
		job := slot.job
		slot.job = nil
		emit(job)
		// Only now may stage A reuse the slot (and its lent ResultSet).
		// The job itself is the caller's again — no accesses past emit.
		free <- slot
	}
}
