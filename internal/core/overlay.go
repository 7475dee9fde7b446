package core

import (
	"repro/internal/keys"
)

// This file answers range scans the way QSAT answers searches: from
// the defines that precede them in the batch (QUD chains, §IV-B/§IV-D).
//
// transform splits a batch's scans from its point queries and sorts the
// points by (Key, Idx), as it would for a point-only batch. apply then
// answers every scan in one palm.EvalScans superstep over the pre-batch
// tree, before the points are applied: each scan walks its leaves once
// and merges the sorted points into the walk, applying on each key, in
// Idx order, only the defines that precede it. Per-key order plus the
// Idx comparison is the only fence a scan needs — a define with a
// larger Idx is simply not applied to it. DESIGN.md §11 has the full
// argument.

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

// scanOverlay is the scan state of one batch. Both slices are scratch
// reused across batches; the engine owns one and each pipeline slot
// another, since stage A builds the next batch's while stage B still
// walks the current one's scans.
type scanOverlay struct {
	scans []keys.Query // the batch's scans; empty = none
	// points is the batch's other queries: batch order from build, then
	// sorted in place by transform, so the scan pass reads the defines
	// off it in (Key, Idx) order.
	points []keys.Query
}

// build splits the batch's scans from its point queries. It needs
// neither tree nor cache, so the pipeline runs it in stage A. qs is
// left untouched; the returned point queries (batch order, original
// Idx) are a copy the caller sorts in place.
func (ov *scanOverlay) build(qs []keys.Query) []keys.Query {
	ov.scans, ov.points = ov.scans[:0], ov.points[:0]
	for i := range qs {
		if qs[i].Op == keys.OpScan {
			ov.scans = append(ov.scans, qs[i])
		} else {
			ov.points = append(ov.points, qs[i])
		}
	}
	return ov.points
}
