// Package core implements QTrans, the paper's contribution: a
// compiler-inspired query sequence analysis and transformation (QSAT)
// framework that eliminates redundant and unnecessary B+ tree queries
// from a batch before evaluation (Sections IV and V of the paper).
//
// The package provides three layers:
//
//   - The reference two-round QSAT of §IV-B/§IV-C: define-use analysis
//     producing QUD chains, mark-sweep useless-query elimination
//     (Algorithm 1), and query inference & reordering (qud.go).
//   - The production one-pass QSAT of §IV-E (Algorithm 2), a single
//     backward sweep over each same-key run of a pre-sorted batch
//     (onepass.go).
//   - The parallel intra-batch transformer (one sort, then one QSAT
//     pass per worker over run-aligned slices; §V-A) and the
//     Engine that integrates QTrans (plus the optional inter-batch
//     top-K cache of §V-B) into the PALM processor (parallel.go,
//     engine.go).
package core

import "repro/internal/keys"

// Router routes inferred and evaluated search answers back to the
// original batch positions. QSAT collapses many search queries of the
// same key into one representative; the Router remembers, per
// representative, the chain of other original query indices that must
// receive the same answer.
//
// Chains are stored as a linked list threaded through two flat arrays
// (next/tail) indexed by original query index, so building and merging
// chains is O(1) and the only per-batch cost is clearing the arrays.
type Router struct {
	next []int32
	tail []int32
}

// Reset prepares the router for a batch of n queries.
func (r *Router) Reset(n int) {
	if cap(r.next) < n {
		r.next = make([]int32, n)
		r.tail = make([]int32, n)
	}
	r.next = r.next[:n]
	r.tail = r.tail[:n]
	for i := range r.next {
		r.next[i] = -1
		r.tail[i] = int32(i)
	}
}

// Append links other (and other's whole chain) onto rep's chain.
func (r *Router) Append(rep, other int32) {
	r.next[r.tail[rep]] = other
	r.tail[rep] = r.tail[other]
}

// Resolve delivers an answer to rep and every index chained to it,
// returning how many results were written.
func (r *Router) Resolve(rs *keys.ResultSet, rep int32, v keys.Value, found bool) int {
	n := 0
	for i := rep; i >= 0; i = r.next[i] {
		rs.Set(i, v, found)
		n++
	}
	return n
}

// Broadcast copies rep's already-recorded result to the rest of its
// chain. Used after tree evaluation answers a surviving representative
// search.
func (r *Router) Broadcast(rs *keys.ResultSet, rep int32) int {
	res, ok := rs.Get(rep)
	if !ok {
		// The representative was never answered (can only happen if the
		// caller skipped evaluation); deliver not-found to the chain so
		// no query is silently dropped.
		res = keys.Result{}
	}
	n := 0
	for i := r.next[rep]; i >= 0; i = r.next[i] {
		rs.Set(i, res.Value, res.Found)
		n++
	}
	return n
}

// ChainLen returns the number of indices chained behind rep (excluding
// rep itself). Intended for tests and stats.
func (r *Router) ChainLen(rep int32) int {
	n := 0
	for i := r.next[rep]; i >= 0; i = r.next[i] {
		n++
	}
	return n
}
