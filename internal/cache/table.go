package cache

import (
	"math/bits"

	"repro/internal/keys"
)

// This file implements the flat storage behind TopK: an open-addressing
// hash table (linear probing, backward-shift deletion) whose columns
// are split by who reads them. §V-B motivates the fixed layout: "as the
// number of entries is fixed, the hash function can be designed in an
// efficient way" — the fixed capacity lets the table be sized once,
// keeps probes short, and avoids per-entry allocation entirely.
//
// A probe reads only the occupancy bitmap and the key column (8 B per
// slot), never the payload, so the bytes every lookup walks stay
// dense; the value and flag columns are touched only for the one slot
// a probe lands on. Replacement is CLOCK over slot indices: the hand
// sweeps the slot array in index order and a hit sets one flag byte.

// Per-slot flag byte: two state bits and a reference level, the number
// of times the CLOCK hand passes the slot before evicting it. Admission
// sets level 1 and a hit or a write level 2, so a key that was used
// outlives one that was only admitted, and a batch's admissions outlive
// the residents the hand has already passed.
const (
	flagTomb  uint8        = 1 << iota // cached deletion: the key is known absent
	flagDirty                          // diverges from the tree; flushed on eviction
	refOne                             // reference level 1, set on admission
	refHit    = 2 * refOne             // reference level 2, set by a hit or a write
	refMask   = 3 * refOne
)

// touched returns flag byte f with its reference level raised to a hit's.
func touched(f uint8) uint8 { return f&^refMask | refHit }

// table is the open-addressed slot store.
type table struct {
	keys  []keys.Key   // probed column: the key of each occupied slot
	occ   []uint64     // occupancy bitmap: bit i set = slot i holds a key
	vals  []keys.Value // payload column: meaningless for a tombstone
	flags []uint8      // payload column: flagTomb | flagDirty | reference level
	mask  uint64
	used  int
	hand  uint64 // CLOCK hand (slot index)
}

// newTable sizes the table for capacity entries at <= 50% load.
func newTable(capacity int) *table {
	size := 64
	for size < capacity*2 {
		size <<= 1
	}
	return &table{
		keys:  make([]keys.Key, size),
		occ:   make([]uint64, size/64),
		vals:  make([]keys.Value, size),
		flags: make([]uint8, size),
		mask:  uint64(size - 1),
	}
}

// hash mixes the key (SplitMix64 finalizer) onto the table.
func (t *table) hash(k keys.Key) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x & t.mask
}

func (t *table) occupied(i uint64) bool { return t.occ[i>>6]&(1<<(i&63)) != 0 }

// find returns the slot index of k, or -1. It reads only the bitmap and
// the key column.
func (t *table) find(k keys.Key) int32 {
	for i := t.hash(k); t.occupied(i); i = (i + 1) & t.mask {
		if t.keys[i] == k {
			return int32(i)
		}
	}
	return -1
}

// insert places k into the table (which must have free space and not
// already contain k) and returns its slot index, with a zero value and
// clear flags.
func (t *table) insert(k keys.Key) int32 {
	i := t.hash(k)
	for t.occupied(i) {
		i = (i + 1) & t.mask
	}
	t.occ[i>>6] |= 1 << (i & 63)
	t.keys[i], t.vals[i], t.flags[i] = k, 0, 0
	t.used++
	return int32(i)
}

// remove deletes slot idx using backward-shift so probe chains stay
// intact without tombstone slots.
func (t *table) remove(idx int32) {
	i := uint64(idx)
	t.occ[i>>6] &^= 1 << (i & 63)
	t.used--
	// Backward-shift: re-place any displaced successors.
	for j := (i + 1) & t.mask; t.occupied(j); j = (j + 1) & t.mask {
		// If slot j's home position lies within (i, j] (cyclically), it
		// cannot move back to i; otherwise shift it into the hole.
		if inCyclicRange(t.hash(t.keys[j]), i, j) {
			continue
		}
		t.keys[i], t.vals[i], t.flags[i] = t.keys[j], t.vals[j], t.flags[j]
		t.occ[i>>6] |= 1 << (i & 63)
		t.occ[j>>6] &^= 1 << (j & 63)
		i = j
	}
}

// inCyclicRange reports whether home lies in the cyclic half-open
// range (hole, j] — i.e. the slot cannot be moved back to the hole.
func inCyclicRange(home, hole, j uint64) bool {
	if hole < j {
		return home > hole && home <= j
	}
	return home > hole || home <= j
}

// each calls fn with the index of every occupied slot, in slot order.
func (t *table) each(fn func(i int)) {
	for w, word := range t.occ {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

// victim advances the CLOCK hand to the first occupied slot whose
// reference level is 0, lowering the levels it passes by one, and
// returns it.
// The hand moves past the victim, so the entry admitted in its place
// gets a full sweep before it is considered. The table must not be
// empty. Empty stretches are skipped a bitmap word at a time.
func (t *table) victim() int32 {
	for {
		i := t.hand
		w := t.occ[i>>6] >> (i & 63)
		if w == 0 {
			// Nothing occupied from i to the end of its word.
			t.hand = ((i | 63) + 1) & t.mask
			continue
		}
		i += uint64(bits.TrailingZeros64(w))
		t.hand = (i + 1) & t.mask
		if t.flags[i]&refMask == 0 {
			return int32(i)
		}
		t.flags[i] -= refOne
	}
}
