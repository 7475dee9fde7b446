package palm

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/stats"
)

// EvalScans answers a batch's range scans in one parallel superstep and
// returns the total row count. Every scan reads the pre-batch tree —
// the engine calls EvalScans once per batch, before the batch's point
// queries are applied, with the tree quiescent — together with the
// defines that precede it in the batch (QUD chains, §IV-B/§IV-D).
// points holds the batch's point queries stably sorted by key, so in
// (Key, Idx) order; searches among them are skipped.
//
// The scans are sorted by lower bound and split among workers by
// count. For each scan it owns, a worker finds the start leaf with the
// path-reuse finder (ascending lower bounds keep the descents cheap,
// exactly like the sorted-run point FIND), then merges two ascending
// streams: the leaf entries in [lo, hi) and the points in [lo, hi). On
// each key it applies only the defines with Idx below the scan's. Each
// final row is written once, into the worker's slab in rs, and the
// walk stops when the scan's limit is reached. Leaves are iterated via
// the occupancy accessors, so gap and sentinel slots never appear in
// scan output. The superstep is timed as StageEvaluate.
//
// rs must have been Reset for the batch; a reused ResultSet makes the
// pass allocation-free. Scans with hi <= lo produce empty row sets.
// scans is re-ordered in place (by lower bound); Idx routing keeps
// results attributable.
func (p *Processor) EvalScans(scans, points []keys.Query, rs *keys.ResultSet) (rows int) {
	st := p.batchStats
	st.Reset()
	st.BatchSize = len(scans)
	st.RemainingQueries = len(scans)
	if len(scans) == 0 {
		return 0
	}
	rs.EnsureScans()
	slabs := rs.ScanSlabs(p.pool.N())
	slices.SortFunc(scans, func(a, b keys.Query) int { return cmp.Compare(a.Key, b.Key) })
	for i := range p.perW {
		p.perW[i].finder.reset(p.tree)
	}

	sw := st.Timer(stats.StageEvaluate)
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, len(scans))
		w := &p.perW[tid]
		slab := slabs[tid] // a copy: appends stay off the line the slabs share
		for _, q := range scans[lo:hi] {
			var out []keys.KV
			if q.Key2 > q.Key {
				from := sort.Search(len(points), func(j int) bool { return points[j].Key >= q.Key })
				out = walkScan(w, &slab, w.finder.find(q.Key), q, points[from:])
			}
			rs.SetScan(q.Idx, out)
			w.scanRows += len(out)
		}
		slabs[tid] = slab
	})
	sw.Stop()
	for i := range p.perW {
		rows += p.perW[i].scanRows
		p.perW[i].scanRows = 0
	}
	p.finishStats()
	return rows
}

// walkScan writes scan q's rows into slab and returns them: the leaf
// entries in [q.Key, q.Key2), walked from leaf (the leaf covering
// q.Key), merged with the defines among pts (the sorted points from
// the first at or above q.Key on) that precede q, up to q's limit
// (q.Value, 0 = unlimited).
func walkScan(w *workerScratch, slab *keys.RowSlab, leaf *btree.Node, q keys.Query, pts []keys.Query) []keys.KV {
	hi, limit := q.Key2, q.Value
	c := &defCursor{pts: pts, hi: hi, idx: q.Idx}
	full := func() bool { return limit > 0 && keys.Value(slab.Len()) >= limit }
	next := c.peek()
	// Leaf keys are sorted across gap slots too, so the first occupied
	// slot at or after the first key >= lo is the walk's start.
	start := btree.SearchGE(leaf.Keys, q.Key) - 1
walk:
	for ; leaf != nil; leaf, start = leaf.Next, -1 {
		w.leafOps++
		for s := leaf.NextSlot(start); s < len(leaf.Keys); s = leaf.NextSlot(s) {
			k := leaf.Keys[s]
			if k >= hi {
				break walk
			}
			for next < k { // defined keys the tree lacks
				c.emit(slab, false, 0)
				if next = c.peek(); full() {
					return slab.Finish()
				}
			}
			if next == k {
				c.emit(slab, true, leaf.Vals[s])
				next = c.peek()
			} else {
				slab.Append(keys.KV{Key: k, Value: leaf.Vals[s]})
			}
			if full() {
				return slab.Finish()
			}
		}
	}
	for next < hi && !full() { // defined keys past the tree's last in range
		c.emit(slab, false, 0)
		next = c.peek()
	}
	return slab.Finish()
}

// defCursor is one scan's read position in the batch's sorted points.
type defCursor struct {
	pts []keys.Query // the points not yet read, from the scan's lo on
	hi  keys.Key     // the scan's exclusive upper bound
	idx int32        // the scan's Idx: only defines below it apply
}

// peek returns the key of the next unread point below hi, or hi.
func (c *defCursor) peek() keys.Key {
	if len(c.pts) > 0 && c.pts[0].Key < c.hi {
		return c.pts[0].Key
	}
	return c.hi
}

// emit reads the run of points on the next key, k, and appends k's row
// as the scan sees it, if present: starting from k's pre-batch state
// (present, val), it applies in batch order every define on k that
// precedes the scan. Searches and later defines are skipped.
func (c *defCursor) emit(slab *keys.RowSlab, present bool, val keys.Value) {
	k := c.pts[0].Key
	i := 0
	for ; i < len(c.pts) && c.pts[i].Key == k; i++ {
		switch d := &c.pts[i]; {
		case d.Idx > c.idx || d.Op == keys.OpSearch:
		case d.Op == keys.OpInsert:
			present, val = true, d.Value
		case d.Op == keys.OpDelete:
			present = false
		case d.RMW == keys.RMWAdd: // absent reads as 0
			if !present {
				val = 0
			}
			present, val = true, val+d.Value
		case !present: // RMWSetIfAbsent
			present, val = true, d.Value
		}
	}
	c.pts = c.pts[i:]
	if present {
		slab.Append(keys.KV{Key: k, Value: val})
	}
}
