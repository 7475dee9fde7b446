package core

import (
	"fmt"
	"strings"

	"repro/internal/keys"
)

// Report breaks a batch's optimization opportunities down into the
// three categories of §III-C, quantifying what QTrans will eliminate
// before the batch is processed. Explain is an analysis tool: it does
// not transform anything.
type Report struct {
	// Total is the batch size.
	Total int
	// Redundancy counts repeated leading searches collapsed into a
	// representative (§III-C "query redundancy", Fig. 5 ❶).
	Redundancy int
	// Overwriting counts defining queries made dead by a later define
	// on the same key with no intervening surviving search (Fig. 5 ❷).
	Overwriting int
	// Inference counts searches answered from an earlier in-batch
	// define instead of the tree (Fig. 5 ❸).
	Inference int
	// Surviving counts the queries that must still be evaluated.
	Surviving int
	// DistinctKeys counts distinct keys in the batch.
	DistinctKeys int
	// DuplicateShare is the Adaptive gate's measure of the batch,
	// d = 1 − distinct keys / point queries (scans excluded).
	DuplicateShare float64
	// SkipsQSAT reports d below the gate's crossover: an Adaptive
	// engine whose cache mode is off sends the batch to the tree
	// unreduced, and a run of such batches (of at least gateMinPoints
	// point queries each) turns the cache mode off (gate.go). With
	// SkipsQSAT false the batch runs QSAT.
	SkipsQSAT bool
}

// Eliminated returns the total number of queries removed.
func (r Report) Eliminated() int { return r.Redundancy + r.Overwriting + r.Inference }

// ReductionRatio returns the eliminated fraction, in [0, 1].
func (r Report) ReductionRatio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Eliminated()) / float64(r.Total)
}

// String renders the report like the paper's running-example prose.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d queries over %d distinct keys: ", r.Total, r.DistinctKeys)
	fmt.Fprintf(&sb, "%d eliminated (%.1f%%) — %d redundant searches, %d overwritten defines, %d inferred returns; %d survive",
		r.Eliminated(), 100*r.ReductionRatio(), r.Redundancy, r.Overwriting, r.Inference, r.Surviving)
	return sb.String()
}

// Explain classifies every query in the batch into §III-C's categories
// without evaluating or transforming anything. The input need not be
// sorted and is not modified.
func Explain(qs []keys.Query) Report {
	r := Report{Total: len(qs)}

	// Per-key streaming state, mirroring the one-pass QSAT semantics.
	// Defining queries include RMWs: a run of defines and RMWs on one
	// key folds into a single synthesized final define, so all but one
	// count as overwritten. An RMW on a key whose in-batch state is
	// unknown leaves the value "present but unknown"; searches behind it
	// survive (answered at the leaf), neither redundant nor inferred.
	type state struct {
		leadingSearches int  // searches before any define
		defines         int  // defining queries seen (insert/delete/RMW)
		inferred        int  // searches answered from known in-batch state
		leafAnswered    int  // searches surviving behind an unknown-state RMW
		unknownVal      bool // state is "present, value unknown"
	}
	perKey := map[keys.Key]*state{}
	scans := 0
	for _, q := range qs {
		if q.Op == keys.OpScan {
			// Scans are range reads answered from the tree plus the
			// defines that precede them; Explain's per-key model cannot
			// eliminate them, so they always survive.
			scans++
			continue
		}
		st := perKey[q.Key]
		if st == nil {
			st = &state{}
			perKey[q.Key] = st
		}
		switch {
		case q.Op == keys.OpSearch && st.defines == 0:
			st.leadingSearches++
		case q.Op == keys.OpSearch && st.unknownVal:
			st.leafAnswered++
		case q.Op == keys.OpSearch:
			st.inferred++
		case q.Op == keys.OpRMW:
			if st.defines == 0 || st.unknownVal {
				st.unknownVal = true
			}
			st.defines++
		default: // insert, delete: state fully known again
			st.defines++
			st.unknownVal = false
		}
	}

	r.DistinctKeys = len(perKey)
	if points := len(qs) - scans; points > 0 {
		r.DuplicateShare = 1 - float64(r.DistinctKeys)/float64(points)
	}
	r.SkipsQSAT = r.DuplicateShare < gateCrossover
	r.Surviving += scans
	for _, st := range perKey {
		if st.leadingSearches > 0 {
			r.Redundancy += st.leadingSearches - 1 // one representative survives
			r.Surviving++
		}
		if st.defines > 0 {
			r.Overwriting += st.defines - 1 // folded into one final define
			r.Surviving++
		}
		r.Inference += st.inferred
		r.Surviving += st.leafAnswered
	}
	return r
}
