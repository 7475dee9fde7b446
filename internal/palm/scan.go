package palm

import (
	"cmp"
	"slices"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/stats"
)

// EvalScans evaluates a batch's range scans against the tree in one
// Stage-1-style pass: the scans are sorted by lower bound and
// partitioned across workers; each worker first locates the leaf of
// every scan it owns with the path-reuse finder (ascending lower bounds
// keep the descents cheap, exactly like the sorted-run point FIND;
// timed as StageFind), then walks the leaf chains collecting rows
// (StageEvaluate). Leaves are iterated via the occupancy accessors, so
// gap and sentinel slots never appear in scan output.
//
// All scans observe the same tree state: the engine calls EvalScans
// once per batch, before the batch's point queries are applied, with
// the tree quiescent. Rows are built in rs's slabs (one per worker), so
// a reused ResultSet makes the pass allocation-free; rs must have been
// Reset for the batch.
//
// Scans with hi <= lo produce empty row sets. scans is re-ordered in
// place (by lower bound); Idx routing keeps results attributable.
func (p *Processor) EvalScans(scans []keys.Query, rs *keys.ResultSet) {
	st := p.batchStats
	st.Reset()
	st.BatchSize = len(scans)
	st.RemainingQueries = len(scans)
	if len(scans) == 0 {
		return
	}
	rs.EnsureScans()
	slabs := rs.ScanSlabs(p.pool.N())
	slices.SortFunc(scans, func(a, b keys.Query) int { return cmp.Compare(a.Key, b.Key) })

	n := len(scans)
	p.scanLeaves = slices.Grow(p.scanLeaves[:0], n)[:n]
	leaves := p.scanLeaves
	for i := range p.perW {
		p.perW[i].finder.reset(p.tree)
	}
	sw := st.Timer(stats.StageFind)
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, n)
		w := &p.perW[tid]
		for i := lo; i < hi; i++ {
			leaves[i] = w.finder.find(scans[i].Key)
		}
	})
	sw.Stop()

	sw = st.Timer(stats.StageEvaluate)
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, n)
		w := &p.perW[tid]
		slab := slabs[tid] // a copy: appends stay off the line the slabs share
		for i := lo; i < hi; i++ {
			q := scans[i]
			rs.SetScan(q.Idx, walkRange(w, &slab, leaves[i], q.Key, q.Key2, q.Value))
		}
		slabs[tid] = slab
	})
	sw.Stop()
	clear(leaves) // do not pin leaves a later batch may unlink
	p.finishStats()
}

// walkRange collects the present (key, value) pairs in [lo, hi), in
// ascending key order, up to limit rows (0 = unlimited), into slab by
// walking the leaf chain from leaf (the leaf covering lo).
func walkRange(w *workerScratch, slab *keys.RowSlab, leaf *btree.Node, lo, hi keys.Key, limit keys.Value) []keys.KV {
	if hi <= lo {
		return nil
	}
walk:
	for ; leaf != nil; leaf = leaf.Next {
		w.leafOps++
		for s := leaf.FirstSlot(); s < len(leaf.Keys); s = leaf.NextSlot(s) {
			k := leaf.Keys[s]
			if k < lo {
				continue
			}
			if k >= hi {
				break walk
			}
			slab.Append(keys.KV{Key: k, Value: leaf.Vals[s]})
			if limit > 0 && keys.Value(slab.Len()) >= limit {
				break walk
			}
		}
	}
	return slab.Finish()
}
