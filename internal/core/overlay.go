package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/keys"
)

// This file answers range scans the way QSAT answers searches: from
// the defines that precede them in the batch (QUD chains, §IV-B/§IV-D).
//
// Every scan of a batch is evaluated against the PRE-batch tree in one
// palm.EvalScans pass, the batch's point queries run as one ordinary
// QTrans batch, and each scan's rows are then patched with the in-batch
// defines that precede it: for every key such a define touches inside
// the scan's range, the key's state is simulated forward from its
// pre-batch state (row present or absent) through those defines in Idx
// order, and the outcome is merged into the tree rows. Per-key order
// plus the Idx comparison is the only fence a scan needs — a define
// with a larger Idx is simply not applied to it. DESIGN.md §11 has the
// full argument.

// hasScanOrRMW reports whether the batch needs the scan/RMW path at
// all (used to keep the point-only hot path byte-for-byte untouched).
func hasScanOrRMW(qs []keys.Query) (scan, rmw bool) {
	for i := range qs {
		switch qs[i].Op {
		case keys.OpScan:
			scan = true
		case keys.OpRMW:
			rmw = true
		}
		if scan && rmw {
			return
		}
	}
	return
}

// keySpan is the half-open key range [lo, hi).
type keySpan struct{ lo, hi keys.Key }

// scanPlan is how one scan gets its pre-batch tree rows.
type scanPlan struct {
	// cover indexes the unlimited scan whose tree rows contain this
	// scan's (the covering-scan kill), or -1 to walk the tree.
	cover int32
	// fetch is how many tree rows the scan needs (0 = all): its limit
	// plus one per in-batch delete in its range, so that patching can
	// never leave it short of rows the tree still holds. Deletes that
	// follow the scan are counted too; the longer fetch is harmless
	// (see overlay).
	fetch keys.Value
}

// scanOverlay is the scan state of one batch. All slices are scratch
// reused across batches; the engine owns one and each pipeline slot
// another, since stage A builds the next batch's while stage B still
// patches the current one.
type scanOverlay struct {
	scans  []keys.Query // the batch's scans, batch order; empty = none
	points []keys.Query // the batch's other queries, batch order until sorted
	plan   []scanPlan   // parallel to scans
	fetch  []keys.Query // uncovered scans for EvalScans, Value = plan.fetch
	order  []int32      // non-empty scans in (lo asc, hi desc) sweep order
	spans  []keySpan    // union of the scan ranges, sorted and disjoint
	defs   []keys.Query // defining queries inside spans, (Key, Idx) order
	dels   []int32      // dels[i] = deletes among defs[:i]
	kills  int          // scans answered from a cover's rows
}

// build splits the batch's scans from its point queries and merges the
// scan ranges into spans. It needs neither tree nor cache, so the
// pipeline runs it in stage A. qs is left untouched; the returned point
// queries (batch order, original Idx) are a copy the caller sorts —
// finish then reads the defines off that sorted copy.
func (ov *scanOverlay) build(qs []keys.Query) []keys.Query {
	ov.scans, ov.points = ov.scans[:0], ov.points[:0]
	for i := range qs {
		if qs[i].Op == keys.OpScan {
			ov.scans = append(ov.scans, qs[i])
		} else {
			ov.points = append(ov.points, qs[i])
		}
	}

	ov.spans = ov.spans[:0]
	for _, s := range ov.scans {
		if s.Key2 > s.Key {
			ov.spans = append(ov.spans, keySpan{s.Key, s.Key2})
		}
	}
	slices.SortFunc(ov.spans, func(a, b keySpan) int { return cmp.Compare(a.lo, b.lo) })
	merged := ov.spans[:0]
	for _, sp := range ov.spans {
		if n := len(merged); n > 0 && sp.lo <= merged[n-1].hi {
			merged[n-1].hi = max(merged[n-1].hi, sp.hi)
		} else {
			merged = append(merged, sp)
		}
	}
	ov.spans = merged
	return ov.points
}

// finish takes the in-span defines from the batch's point queries,
// stably sorted by (Key, Idx), and plans the scans. Per span it
// binary-searches the first point at or above the span's low key and
// walks only the points inside the span; the spans are sorted and
// disjoint, so each search starts where the last walk stopped. defs
// inherits the points' (Key, Idx) order, so it needs no sort of its
// own; dels counts its deletes as it grows.
func (ov *scanOverlay) finish(sorted []keys.Query) {
	ov.defs, ov.dels = ov.defs[:0], append(ov.dels[:0], 0)
	i := 0
	for _, sp := range ov.spans {
		rest := sorted[i:]
		i += sort.Search(len(rest), func(j int) bool { return rest[j].Key >= sp.lo })
		for ; i < len(sorted) && sorted[i].Key < sp.hi; i++ {
			if op := sorted[i].Op; op != keys.OpSearch {
				ov.defs = append(ov.defs, sorted[i])
				d := ov.dels[len(ov.dels)-1]
				if op == keys.OpDelete {
					d++
				}
				ov.dels = append(ov.dels, d)
			}
		}
	}
	ov.planScans()
}

// defRange returns the bounds [a, b) of the in-range defines with
// lo <= key < hi in defs.
func (ov *scanOverlay) defRange(lo, hi keys.Key) (a, b int) {
	a = sort.Search(len(ov.defs), func(i int) bool { return ov.defs[i].Key >= lo })
	b = a + sort.Search(len(ov.defs)-a, func(i int) bool { return ov.defs[a+i].Key >= hi })
	return a, b
}

// defsIn returns the in-range defines with lo <= key < hi.
func (ov *scanOverlay) defsIn(lo, hi keys.Key) []keys.Query {
	a, b := ov.defRange(lo, hi)
	return ov.defs[a:b]
}

// planScans applies the covering-scan kill across the whole batch and
// sizes every scan's tree fetch. All scans read the same pre-batch
// tree, so any scan whose range lies inside an *unlimited* scan's can
// clip that scan's rows instead of walking the tree.
func (ov *scanOverlay) planScans() {
	ov.plan = slices.Grow(ov.plan[:0], len(ov.scans))[:len(ov.scans)]
	ov.order = ov.order[:0]
	for i := range ov.scans {
		ov.plan[i] = scanPlan{cover: -1}
		if ov.scans[i].Key2 > ov.scans[i].Key {
			ov.order = append(ov.order, int32(i))
		}
	}
	slices.SortStableFunc(ov.order, func(a, b int32) int {
		if c := cmp.Compare(ov.scans[a].Key, ov.scans[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(ov.scans[b].Key2, ov.scans[a].Key2)
	})

	ov.kills = 0
	ov.fetch = ov.fetch[:0]
	cover := int32(-1) // widest unlimited scan seen so far in the sweep
	for _, i := range ov.order {
		q, pl := ov.scans[i], &ov.plan[i]
		if q.Value > 0 {
			a, b := ov.defRange(q.Key, q.Key2)
			pl.fetch = q.Value + keys.Value(ov.dels[b]-ov.dels[a])
			if pl.fetch < q.Value { // wrapped: fetch everything
				pl.fetch = 0
			}
		}
		if cover >= 0 && q.Key2 <= ov.scans[cover].Key2 {
			pl.cover = cover
			ov.kills++
			continue
		}
		// Not covered. An unlimited scan reaching further right becomes
		// the cover (its lo bounds every later lo in the sweep); a
		// limited one cannot cover others, and the previous cover may
		// still serve narrower later ranges.
		if q.Value == 0 {
			cover = i
		}
		q.Value = pl.fetch
		ov.fetch = append(ov.fetch, q)
	}
}

// patch turns the raw tree rows EvalScans recorded into every scan's
// final rows and returns their total count. Covered scans go first:
// they clip their cover's raw rows, which the cover's own patch then
// replaces. Patched rows are always written to fresh slab space, never
// in place, so clipped views of a cover stay intact.
func (ov *scanOverlay) patch(rs *keys.ResultSet) (rows int) {
	rs.EnsureScans()
	slab := &rs.ScanSlabs(1)[0]
	for _, covered := range []bool{true, false} {
		for i := range ov.scans {
			q, pl := &ov.scans[i], ov.plan[i]
			if (pl.cover >= 0) != covered {
				continue
			}
			raw, _ := rs.ScanRows(q.Idx) // none for an empty range: never evaluated
			if covered {
				raw, _ = rs.ScanRows(ov.scans[pl.cover].Idx)
				raw = clipRows(raw, q.Key, q.Key2, pl.fetch)
			}
			out := ov.overlay(slab, raw, q)
			rs.SetScan(q.Idx, out)
			rows += len(out)
		}
	}
	return rows
}

// clipRows restricts a cover's ascending rows to [lo, hi) and to the
// first limit rows (0 = all). The result is a sub-slice.
func clipRows(rows []keys.KV, lo, hi keys.Key, limit keys.Value) []keys.KV {
	a := sort.Search(len(rows), func(i int) bool { return rows[i].Key >= lo })
	b := sort.Search(len(rows), func(i int) bool { return rows[i].Key >= hi })
	return truncRows(rows[a:b], limit)
}

func truncRows(rows []keys.KV, limit keys.Value) []keys.KV {
	if limit > 0 && keys.Value(len(rows)) > limit {
		rows = rows[:limit:limit]
	}
	return rows
}

// overlay merges scan q's raw tree rows with the defines that precede
// it. Keys the tree fetch stopped short of read as absent; that is
// harmless, because a short fetch holds limit + D rows (D counts the
// batch's deletes in the scan's range, preceding it or not), at most D
// of which the overlay removes, so the limit is reached at or before
// the last fetched key and everything after it is truncated.
func (ov *scanOverlay) overlay(slab *keys.RowSlab, raw []keys.KV, q *keys.Query) []keys.KV {
	defs := ov.defsIn(q.Key, q.Key2)
	if !slices.ContainsFunc(defs, func(d keys.Query) bool { return d.Idx < q.Idx }) {
		return truncRows(raw, q.Value)
	}
	r := 0
	for j := 0; j < len(defs); {
		k := defs[j].Key
		end := j + 1
		for end < len(defs) && defs[end].Key == k {
			end++
		}
		if defs[j].Idx > q.Idx { // every define on k follows the scan
			j = end
			continue
		}
		from := r
		for r < len(raw) && raw[r].Key < k {
			r++
		}
		slab.AppendAll(raw[from:r])
		present, val := false, keys.Value(0)
		if r < len(raw) && raw[r].Key == k {
			present, val = true, raw[r].Value
			r++
		}
		for ; j < end && defs[j].Idx < q.Idx; j++ {
			switch d := &defs[j]; {
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
		j = end
		if present {
			slab.Append(keys.KV{Key: k, Value: val})
		}
		if q.Value > 0 && keys.Value(slab.Len()) >= q.Value {
			r = len(raw)
			break
		}
	}
	slab.AppendAll(raw[r:])
	return truncRows(slab.Finish(), q.Value)
}
