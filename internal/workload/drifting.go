package workload

import (
	"math/rand"

	"repro/internal/keys"
)

// Drifting is the moving-hotspot workload behind the tiered-drift-batch
// benchmark workload and the autoshard design (DESIGN.md §13): a hot
// window of Width contiguous keys receives HotFraction of the traffic
// while its center walks the key space at Velocity keys per draw,
// wrapping around at Span. The
// remaining draws are uniform over the whole space. Unlike TimeVarying
// — whose window teleports between simulated hours — the drift here is
// continuous, which is exactly the case an autoshard controller must
// chase: any static partition is right only for a while.
type Drifting struct {
	// Span is the key space [0, Span).
	Span uint64
	// Width is the hot window's size in keys.
	Width uint64
	// Velocity is how far the window's center moves per draw, in
	// thousandths of a key (so slow drifts below one key per draw are
	// expressible): 1000 = one key per draw.
	VelocityMilli uint64
	// HotFraction is the fraction of draws landing in the window.
	HotFraction float64

	clock uint64
}

// NewDrifting returns a drifting hotspot over [0, span) with defaults:
// a span/64 window, 90% hot traffic, drifting one key per 4 draws.
func NewDrifting(span uint64) *Drifting {
	return &Drifting{
		Span:          span,
		Width:         span / 64,
		VelocityMilli: 250,
		HotFraction:   0.9,
	}
}

// center returns the window's current center key.
func (d *Drifting) center() uint64 {
	return d.clock * d.VelocityMilli / 1000 % d.Span
}

// Key implements Generator. Not safe for concurrent use (the drift
// clock advances per draw), matching the other generators.
func (d *Drifting) Key(r *rand.Rand) keys.Key {
	d.clock++
	if r.Float64() < d.HotFraction {
		off := uint64(r.Int63n(int64(d.Width)))
		// Window [center-Width/2, center+Width/2), wrapped.
		return keys.Key((d.center() + d.Span - d.Width/2 + off) % d.Span)
	}
	return keys.Key(r.Uint64() % d.Span)
}

// Name implements Generator.
func (d *Drifting) Name() string { return "drifting" }

// KeyRange implements Generator.
func (d *Drifting) KeyRange() uint64 { return d.Span }

// Clock returns the number of draws so far.
func (d *Drifting) Clock() uint64 { return d.clock }
