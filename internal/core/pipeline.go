package core

import (
	"repro/internal/bsp"
	"repro/internal/keys"
	"repro/internal/stats"
)

// This file implements two-stage pipelined stream execution: the
// intra-batch QTrans transform of batch N+1 overlaps the PALM tree
// stages of batch N.
//
// Stage split. The sort and the QSAT pass touch only the batch
// itself, the slot's Router, and the batch's ResultSet — never the tree
// or the inter-batch cache. The tree stages (FIND, evaluate,
// restructure) and the top-K cache pass touch shared state. So:
//
//	stage A (transform): sort + QSAT on a second BSP pool, one batch
//	    ahead, into a per-slot Transformer/Router/stats.
//	stage B (tree): top-K cache pass, PALM stages, representative
//	    broadcast — on the engine's own pool, strictly in batch order.
//
// Handoff rule (the correctness hinge, DESIGN.md §4.6): the top-K cache
// is read and written ONLY in stage B. Stage A never consults the
// cache, so the transform of batch N+1 can run while batch N is still
// mutating cache and tree; batch N+1's cache pass starts only after
// batch N's evaluation has committed. Because QTrans's intra-batch
// transform is independent of tree and cache state, the observable
// semantics — results, final tree, flushed cache — are byte-identical
// to serial execution. The differential tests in pipeline_test.go
// verify exactly that.
//
// Two slots are enough: one batch transforming, one batch in the tree.
// Each slot owns a Transformer (bound to the transform pool), a stats
// block, a lendable ResultSet, and the reduced-query view, so
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
	tf        *Transformer
	st        *stats.Batch
	rs        *keys.ResultSet
	job       *Job
	remaining []keys.Query

	// Scan/RMW batches carry their define overlay through the handoff:
	// building it and transforming the point queries still runs in
	// stage A (both are tree- and cache-independent), only execution
	// and the row patch wait for stage B.
	extended bool
	ov       scanOverlay
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
		tf := NewTransformer(e.tfPool)
		tf.CompareSort = e.cfg.CompareSort
		e.slots[i] = &pipeSlot{
			tf: tf,
			st: stats.NewBatch(e.tfPool.N()),
			rs: keys.NewResultSet(0),
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

	go func() {
		for job := range in {
			slot := <-free
			slot.job = job
			if job.RS == nil {
				job.RS = slot.rs
			}
			job.RS.Reset(len(job.Qs))
			e.transformStage(slot)
			handoff <- slot
		}
		close(handoff)
	}()

	for slot := range handoff {
		if e.met == nil {
			e.treeStage(slot)
		} else {
			// Pipelined batch wall is the tree-stage wall: the transform
			// overlapped the previous batch, and its time is already in
			// the slot's stage timings folded by treeStage.
			start := e.met.reg.Now()
			e.treeStage(slot)
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

// transformStage runs stage A for the slot's job on the transform pool:
// Original mode pre-sorts the batch; the QTrans modes run the full
// intra-batch transform, writing inferred answers into the job's
// ResultSet. No tree or cache access happens here.
func (e *Engine) transformStage(slot *pipeSlot) {
	job := slot.job
	st := slot.st
	st.Reset()
	st.BatchSize = len(job.Qs)
	slot.remaining = nil
	slot.extended = false
	if len(job.Qs) == 0 {
		return
	}

	if scan, rmw := hasScanOrRMW(job.Qs); scan || rmw {
		slot.extended = true
		slot.remaining = e.transformScanRMW(slot.tf, &slot.ov, job.Qs, job.RS, st, scan)
		return
	}

	switch e.cfg.Mode {
	case Original:
		if !e.cfg.Palm.PreSorted {
			sw := st.Timer(stats.StageSort)
			slot.tf.sort(job.Qs)
			sw.Stop()
		}
		slot.remaining = job.Qs
	case SimIntra:
		slot.remaining = slot.tf.TransformSim(job.Qs, job.RS, st)
	default: // Intra, IntraInter
		slot.remaining = slot.tf.Transform(job.Qs, job.RS, st)
	}
}

// treeStage runs stage B for the slot's job on the engine's pool: the
// top-K cache pass (serialized here, in batch order — the handoff
// rule), the PALM tree stages, and the representative broadcast. The
// engine's Stats() block is rebuilt from the slot's transform timings
// plus this stage's own.
func (e *Engine) treeStage(slot *pipeSlot) {
	job := slot.job
	e.st.Reset()
	slot.st.AddTo(e.st)
	if len(job.Qs) == 0 {
		return
	}

	// Batch application: gate + commit point, exactly as in
	// ProcessBatch. treeStage runs strictly in batch order, so commits
	// are logged in arrival order even though transforms overlap.
	if e.gate != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}

	if slot.extended {
		e.applyScanRMW(slot.tf, &slot.ov, slot.remaining, job.RS)
		return
	}

	if e.cfg.Mode == Original {
		if !e.commit(job.Qs) {
			return
		}
		e.st.RemainingQueries = len(job.Qs)
		e.proc.ProcessBatchSorted(job.Qs, job.RS)
		e.mergeProcStats(e.st)
		return
	}

	remaining := slot.remaining
	if !e.commit(remaining) {
		return
	}
	if e.topK != nil {
		sw := e.st.Timer(stats.StageCache)
		remaining = e.cachePass(remaining, job.RS, &slot.tf.Router, e.st)
		sw.Stop()
	}
	e.st.RemainingQueries = len(remaining)
	e.proc.ProcessTransformed(remaining, job.RS)
	slot.tf.Broadcast(job.RS)
	e.mergeProcStats(e.st)
}
