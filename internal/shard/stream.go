package shard

import (
	"sync"

	"repro/internal/core"
	"repro/internal/keys"
)

// Streamed sharded execution: every shard runs its own core
// ProcessStream (two-stage pipelined when the engine config asks for
// it), a dispatcher goroutine feeds each incoming job's sub-batches to
// the shard streams, and the emit loop merges each job's sub-results —
// strictly in arrival order — back into the job's ResultSet.
//
// Commit: the dispatcher takes the gate's shared side for each job,
// logs the job (commit) and only then hands it on; the gate is released
// after the job is emitted. So, as in ProcessBatch, a snapshot under
// the exclusive gate never sees a logged job that is not yet applied.
// A job dropped by a poisoned engine still flows to emit, in order, with
// unspecified results.
//
// Order and equivalence: the splitter pushes sub-jobs to every shard in
// arrival order and each shard stream completes its sub-jobs in that
// order, so a job's sub-results are uniquely identified by its
// streamJob and jobs re-merge in arrival order. Within a shard the
// sub-sequence order equals original batch order (stable split), which
// is the same argument as ProcessBatch — semantics stay byte-identical
// to serial unsharded execution, pipelined or not.

// streamDepth bounds how many jobs may be in flight across the shard
// streams: one merging, one splitting, one queued. Each shard adds its
// own two pipeline slots on top.
const streamDepth = 3

// streamJob is the in-flight workspace of one job: its own splitter
// (splits for job N+1 overlap the merge of job N) and per-shard
// sub-jobs and ResultSets. wg counts outstanding sub-jobs.
type streamJob struct {
	job   *core.Job
	sp    *splitter
	subs  []core.Job
	subRS []*keys.ResultSet
	wg    sync.WaitGroup
	// dropped marks a job the poisoned engine did not apply: nothing
	// was dispatched, so there is nothing to merge.
	dropped bool
}

func (e *Engine) newStreamJob() *streamJob {
	n := len(e.shards)
	sj := &streamJob{
		sp:    newSplitter(n),
		subs:  make([]core.Job, n),
		subRS: make([]*keys.ResultSet, n),
	}
	for i := range sj.subRS {
		sj.subRS[i] = keys.NewResultSet(0)
	}
	return sj
}

// ProcessStream consumes jobs from in until it is closed, processing
// each with semantics identical to calling ProcessBatch in arrival
// order, and hands every finished job to emit in that order. Jobs with
// a nil RS borrow a recycled ResultSet valid only until emit returns
// (the core.Job contract). Must not be called concurrently with itself,
// ProcessBatch, or Rebalance.
func (e *Engine) ProcessStream(in <-chan *core.Job, emit func(*core.Job)) {
	if len(e.shards) == 1 {
		e.processStreamOne(in, emit)
		return
	}

	// One channel and one ProcessStream per shard; the shard count is
	// fixed, and boundary moves between jobs change only the routing.
	n := len(e.shards)
	subIn := make([]chan *core.Job, n)
	var shardWG sync.WaitGroup
	for s := 0; s < n; s++ {
		subIn[s] = make(chan *core.Job, 1)
		shardWG.Add(1)
		go func(s int) {
			defer shardWG.Done()
			e.shards[s].ProcessStream(subIn[s], func(j *core.Job) {
				j.Tag.(*streamJob).wg.Done()
			})
		}(s)
	}

	free := make(chan *streamJob, streamDepth)
	for i := 0; i < streamDepth; i++ {
		free <- e.newStreamJob()
	}
	ordered := make(chan *streamJob, streamDepth)

	go func() {
		for job := range in {
			sj := <-free
			sj.job = job
			// Gate held per job from its append until it is emitted
			// (RLock here, RUnlock in the merge loop — legal for a
			// counted RWMutex): a snapshot writer waits for every
			// in-flight job and blocks new dispatches.
			e.rlock()
			sj.dropped = !e.commit(job.Qs)
			if sj.dropped {
				ordered <- sj
				continue
			}
			splitStart, _ := e.met.now()
			// e.bounds is read under this job's RLock, so a boundary
			// flip by the controller (under the exclusive lock) is
			// either fully visible or not at all.
			sj.sp.split(job.Qs, e.bounds, e.heat)
			e.met.observeSplit(splitStart)
			e.recordRouting(sj.sp)
			for s := 0; s < n; s++ {
				sub := sj.sp.subs[s]
				if len(sub) == 0 {
					continue
				}
				sj.subRS[s].Reset(len(sub))
				sj.subs[s] = core.Job{Qs: sub, RS: sj.subRS[s], Tag: sj}
				sj.wg.Add(1)
				subIn[s] <- &sj.subs[s]
			}
			ordered <- sj
		}
		for s := range subIn {
			close(subIn[s])
		}
		close(ordered)
	}()

	if e.lendRS == nil {
		e.lendRS = keys.NewResultSet(0)
	}
	for sj := range ordered {
		sj.wg.Wait()
		job := sj.job
		sj.job = nil
		if job.RS == nil {
			job.RS = e.lendRS
		}
		job.RS.Reset(len(job.Qs))
		if !sj.dropped {
			mergeStart, _ := e.met.now()
			sj.sp.merge(sj.subRS, job.RS)
			e.met.observeMerge(mergeStart)
		}
		emit(job)
		// Ownership returns to the caller at emit; no accesses past it.
		free <- sj
		e.runlock()
	}
	shardWG.Wait()
}

// droppedJob stands in, inside the one-shard stream, for a job the
// poisoned engine does not apply: an empty job flows through the shard
// stream in the original's place, so emit order is kept.
type droppedJob struct{ job *core.Job }

// processStreamOne is ProcessStream over one shard: the shard's own
// stream evaluates the jobs unsplit, and a dispatcher in front of it
// holds the gate's shared side for each job from its append until it is
// emitted — Checkpoint relies on every logged batch being applied once
// it holds the exclusive side.
func (e *Engine) processStreamOne(in <-chan *core.Job, emit func(*core.Job)) {
	sub := make(chan *core.Job)
	go func() {
		for job := range in {
			e.rlock()
			if !e.commit(job.Qs) {
				job = &core.Job{RS: job.RS, Tag: droppedJob{job}}
			}
			sub <- job
		}
		close(sub)
	}()
	e.shards[0].ProcessStream(sub, func(j *core.Job) {
		if d, ok := j.Tag.(droppedJob); ok {
			if d.job.RS == nil {
				d.job.RS = j.RS
			}
			d.job.RS.Reset(len(d.job.Qs))
			j = d.job
		}
		e.shst.RecordRouted(0, len(j.Qs))
		e.shst.RecordBatch()
		e.met.recordRouted(0, len(j.Qs))
		e.met.recordBatch()
		emit(j)
		e.runlock()
	})
}
