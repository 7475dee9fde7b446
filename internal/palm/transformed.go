package palm

import (
	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/stats"
)

// ProcessTransformed evaluates a QTrans-reduced batch (Fig. 8): qs must
// be stably key-sorted and contain, per key, at most one representative
// search (which, if present, precedes the key's defining queries in
// original order) plus defining queries.
//
// Because QTrans guarantees every remaining search precedes every
// remaining defining query on its key, searches can be answered
// directly during the Stage-1 leaf FIND — before any mutation — and
// only defining queries are shuffled into Stage 2 ("if the update ratio
// is low, it only redistributes the update-related queries", §VI-B).
// When the reduced batch contains no defining queries at all, Stages 2
// and 3 are skipped entirely.
func (p *Processor) ProcessTransformed(qs []keys.Query, rs *keys.ResultSet) {
	st := p.batchStats
	st.Reset()
	st.BatchSize = len(qs)
	st.RemainingQueries = len(qs)
	if len(qs) == 0 {
		return
	}

	sw := st.Timer(stats.StageFind)
	hasDefines := p.findAndAnswer(qs, rs)
	sw.Stop()

	if hasDefines {
		sw = st.Timer(stats.StageEvaluate)
		p.evaluate(qs, rs, true)
		sw.Stop()

		sw = st.Timer(stats.StageModify)
		p.restructure()
		sw.Stop()
	}
	p.finishStats()
}

// findAndAnswer is the QTrans Stage 1: one leaf FIND per distinct key,
// searches answered immediately, defining queries collected into leaf
// groups for Stage 2. Reports whether any defining queries exist.
//
// Searches tagged LeafAnswer are NOT answered here: a surviving RMW on
// the same key precedes them in batch order, so their answer depends
// on Stage-2 state. They are grouped alongside the defines and
// answered by the leaf appliers.
func (p *Processor) findAndAnswer(qs []keys.Query, rs *keys.ResultSet) bool {
	n := len(qs)
	for i := range p.perW {
		p.perW[i].groups = p.perW[i].groups[:0]
		p.perW[i].paths.reset()
		p.perW[i].finder.reset(p.tree)
	}
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, n)
		w := &p.perW[tid]
		var leaf *btree.Node
		for i := lo; i < hi; i++ {
			if i == lo || qs[i].Key != qs[i-1].Key {
				leaf = w.finder.find(qs[i].Key)
			}
			if qs[i].Op == keys.OpSearch && !qs[i].LeafAnswer {
				v, ok := btree.LeafFind(leaf, qs[i].Key)
				rs.Set(qs[i].Idx, v, ok)
				w.leafOps++
				continue
			}
			// Defining query (or a LeafAnswer search riding with one):
			// group it. Groups may span searches of neighboring keys;
			// evalGroup skips already-answered searches when
			// answerDuringFind.
			if len(w.groups) > 0 && w.groups[len(w.groups)-1].leaf == leaf {
				w.groups[len(w.groups)-1].hi = i + 1
			} else {
				w.groups = append(w.groups, leafGroup{leaf: leaf, path: w.paths.clone(&w.finder.path), lo: i, hi: i + 1})
			}
		}
	})

	p.groups = p.groups[:0]
	for t := range p.perW {
		for _, g := range p.perW[t].groups {
			if len(p.groups) > 0 && p.groups[len(p.groups)-1].leaf == g.leaf {
				p.groups[len(p.groups)-1].hi = g.hi
			} else {
				p.groups = append(p.groups, g)
			}
		}
	}
	return len(p.groups) > 0
}
