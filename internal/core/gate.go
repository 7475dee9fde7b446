package core

import "repro/internal/keys"

// This file holds the Adaptive mode's cost gate (DESIGN.md §4 item 9).
// QSAT and the top-K cache remove tree work only for keys a batch (or
// the cache) holds more than once; on a batch of mostly distinct keys
// their passes cost more than the tree work they save, and a
// sorted-batch PALM already makes a duplicate cheap (a fence hit plus
// a same-leaf probe). The gate runs the paper's passes only where
// BenchmarkGateCrossover measured that they pay:
//
//   - per batch, QSAT runs only if the batch's duplicate share
//     d = 1 − key runs / point queries reaches gateCrossover (or the
//     cache mode is on: the cache pass needs a reduced batch);
//     otherwise the sorted batch goes to the tree unreduced, which is
//     org's path without its sort;
//   - the cache is a mode: it turns off when an EWMA of d falls below
//     gateCrossover and back on when the EWMA rises above
//     gateCrossover + gateBand.
//
// The gate's state belongs to stage A (transform): it is a pure
// function of the batch sequence, carried to stage B in the batch plan,
// so serial and pipelined runs decide identically.

const (
	// gateCrossover is d*, the duplicate share at which one-pass QSAT
	// starts to beat org's path (BenchmarkGateCrossover, EXPERIMENTS.md
	// "Cost-gated QTrans").
	gateCrossover = 0.94
	// gateBand is the hysteresis above gateCrossover the EWMA must
	// clear before a cache that went off turns back on.
	gateBand = 0.02
	// gateAlpha is the weight of the newest batch in the EWMA of d.
	gateAlpha = 0.5
	// gateMinPoints is the fewest point queries a batch must hold to
	// move the EWMA: a small batch's d says little about the workload
	// (one query always reads 0), and its passes cost little.
	gateMinPoints = 256
)

// duplicateShare returns d = 1 − key runs / queries over the key-sorted
// point queries qs, or 0 for an empty batch.
func duplicateShare(qs []keys.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(qs); i++ {
		if qs[i].Key != qs[i-1].Key {
			runs++
		}
	}
	return 1 - float64(runs)/float64(len(qs))
}

// adaptiveGate is the Adaptive mode's decision state. It starts with
// the cache mode on, so a trained or warmed cache meets the first
// batches.
type adaptiveGate struct {
	ewma    float64
	cacheOn bool
}

func newAdaptiveGate() adaptiveGate { return adaptiveGate{ewma: 1, cacheOn: true} }

// decide folds the duplicate share d of a batch with n point queries
// into the gate and returns that batch's plan: whether QSAT runs and
// whether the cache mode is on. A batch of fewer than gateMinPoints
// point queries leaves the EWMA and the mode as they are.
func (g *adaptiveGate) decide(d float64, n int) (reduce, cacheOn bool) {
	if n >= gateMinPoints {
		g.ewma += gateAlpha * (d - g.ewma)
		switch {
		case g.cacheOn && g.ewma < gateCrossover:
			g.cacheOn = false
		case !g.cacheOn && g.ewma > gateCrossover+gateBand:
			g.cacheOn = true
		}
	}
	return g.cacheOn || d >= gateCrossover, g.cacheOn
}
