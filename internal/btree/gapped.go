package btree

// Gapped node layout (DESIGN.md §10, after BS-tree, arXiv:2505.01180).
//
// Every node stores its entries in a fixed-capacity flat key array
// with deliberate empty slots ("gaps") between them, instead of
// densely packed variable-length slices:
//
//   - Every slot always holds a loadable key, so the intra-node search
//     kernels (SearchGE/SearchGT) scan the full fixed-width array with
//     unconditional loads — no per-probe bounds checks and an
//     iteration count that depends only on the tree order, never on
//     the node's current fill.
//   - A gap slot duplicates the key AND value of the nearest occupied
//     slot to its right (its "anchor"); slots right of the last entry
//     hold SentinelKey with a zero value. The array is therefore
//     always sorted, and a search that lands on a gap still reads the
//     correct pair without consulting any side structure.
//   - Inserting a new key claims the gap at its insertion point in
//     O(1) when one is there; otherwise entries shift only as far as
//     the nearest gap (a local redistribute) instead of moving the
//     whole tail. Deletes free a slot by rewriting its short duplicate
//     run. Both are tracked by the gap-claim/shift counters.
//   - Splits happen only when a node is genuinely full, and freshly
//     split/loaded nodes spread their gaps evenly, so a batch of
//     inserts is absorbed by slack instead of cascading splits —
//     directly shrinking PALM's Stage-3 restructuring.
//
// Which slots are occupied is tracked by a per-node presence bitmap
// (occ) plus a count. The bitmap is consulted only on mutation,
// iteration, and for the one ambiguous probe value (SentinelKey);
// the search hot path never touches it.
//
// Internal nodes use the same fixed-capacity key array, with the
// occupied separators as a dense prefix and a SentinelKey-filled tail;
// their child-pointer slice stays dense so Stage-3 child rebuilds and
// the descent loop index it directly. Separator churn is
// split-driven and therefore rare once leaf splits are, which is why
// inner nodes do not need mid-array gaps to benefit.

import (
	"math/bits"

	"repro/internal/keys"
)

// SentinelKey fills the key slots right of a gapped node's last entry
// so searches can scan the full array unconditionally. It is the
// maximum key value; a real entry may legitimately store it, so probes
// for exactly SentinelKey disambiguate via the presence bitmap (the
// only probe value that ever needs it).
const SentinelKey = ^keys.Key(0)

// Slot invariants: len(Keys) == Cap() fixed slots; Len() of them are
// occupied (tracked by the presence bitmap); every free slot holds a
// copy of the nearest occupied entry to its right, or (SentinelKey, 0)
// when there is none, so Keys is always fully sorted and
// Keys[FirstSlot()] is the node's minimum.

// Cap returns the node's slot capacity.
func (n *Node) Cap() int { return len(n.Keys) }

// Occupied reports whether slot i holds a real entry.
func (n *Node) Occupied(i int) bool {
	return n.occ[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// FirstSlot returns the slot of the node's smallest entry, or
// len(n.Keys) when the node is empty. Iterate entries with:
//
//	for i := n.FirstSlot(); i < len(n.Keys); i = n.NextSlot(i) { ... }
func (n *Node) FirstSlot() int { return n.nextOcc(0) }

// NextSlot returns the next occupied slot after i, or len(n.Keys).
func (n *Node) NextSlot(i int) int { return n.nextOcc(i + 1) }

// LastSlot returns the slot of the node's largest entry, or -1 when
// the node is empty.
func (n *Node) LastSlot() int { return n.prevOcc(len(n.Keys) - 1) }

func (n *Node) setOcc(i int)   { n.occ[uint(i)>>6] |= 1 << (uint(i) & 63) }
func (n *Node) clearOcc(i int) { n.occ[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// nextOcc returns the first occupied slot >= i, or len(n.Keys).
func (n *Node) nextOcc(i int) int {
	c := len(n.Keys)
	if i < 0 {
		i = 0
	}
	for i < c {
		if w := n.occ[uint(i)>>6] >> (uint(i) & 63); w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = (i>>6 + 1) << 6
	}
	return c
}

// prevOcc returns the last occupied slot <= i, or -1.
func (n *Node) prevOcc(i int) int {
	if i >= len(n.Keys) {
		i = len(n.Keys) - 1
	}
	for i >= 0 {
		if w := n.occ[uint(i)>>6] << (63 - uint(i)&63); w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i = (i>>6)<<6 - 1
	}
	return -1
}

// nextFree returns the first free slot >= i, or len(n.Keys).
func (n *Node) nextFree(i int) int {
	c := len(n.Keys)
	if i < 0 {
		i = 0
	}
	for i < c {
		if w := ^n.occ[uint(i)>>6] >> (uint(i) & 63); w != 0 {
			if j := i + bits.TrailingZeros64(w); j < c {
				return j
			}
			return c
		}
		i = (i>>6 + 1) << 6
	}
	return c
}

// prevFree returns the last free slot <= i, or -1.
func (n *Node) prevFree(i int) int {
	if i >= len(n.Keys) {
		i = len(n.Keys) - 1
	}
	for i >= 0 {
		if w := ^n.occ[uint(i)>>6] << (63 - uint(i)&63); w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i = (i>>6)<<6 - 1
	}
	return -1
}

// occWords returns the bitmap word count for a capacity.
func occWords(capacity int) int { return (capacity + 63) / 64 }

// NewGappedLeaf returns an empty gapped leaf with the given slot
// capacity (every slot sentinel-filled and free).
func NewGappedLeaf(capacity int) *Node {
	n := &Node{
		Keys: make([]keys.Key, capacity),
		Vals: make([]keys.Value, capacity),
		occ:  make([]uint64, occWords(capacity)),
	}
	for i := range n.Keys {
		n.Keys[i] = SentinelKey
	}
	return n
}

// leafHasAt resolves the one ambiguous probe: slot i matched the probe
// key, and the match is a real hit unless the key is SentinelKey and
// slot i lies in the sentinel-filled tail (no occupied anchor storing
// SentinelKey to its right).
func (n *Node) leafHasAt(i int) bool {
	if n.Keys[i] != SentinelKey {
		return true
	}
	j := n.nextOcc(i)
	return j < len(n.Keys) && n.Keys[j] == SentinelKey
}

// GappedEdit reports the work a gapped leaf mutation performed, for
// the layout counters (stats.Batch GapClaims/ShiftedSlots).
type GappedEdit struct {
	// Added/Removed report whether the entry count changed.
	Added, Removed bool
	// Full reports an insert that found no free slot (the caller must
	// split and retry); no mutation happened.
	Full bool
	// GapClaim reports an O(1) insert into the gap at the insertion
	// point.
	GapClaim bool
	// Shifted counts slots moved (insert redistributes to the nearest
	// gap) or rewritten (delete refills its duplicate run).
	Shifted int
}

// InsertGapped stores (k, v) in the gapped leaf n: overwrite in place
// when k is present; otherwise claim the gap at the insertion point,
// or shift entries to the nearest gap, or report Full when none is
// free (the caller splits and retries).
func (n *Node) InsertGapped(k keys.Key, v keys.Value) GappedEdit {
	c := len(n.Keys)
	i := SearchGE(n.Keys, k)
	if i < c && n.Keys[i] == k && n.leafHasAt(i) {
		// Present: rewrite the duplicate run's values up to its anchor.
		for j := i; j < c && n.Keys[j] == k; j++ {
			n.Vals[j] = v
			if n.Occupied(j) {
				break
			}
		}
		return GappedEdit{}
	}
	if int(n.count) == c {
		return GappedEdit{Full: true}
	}
	if i < c && !n.Occupied(i) {
		// The insertion point is a gap (the leftmost duplicate of the
		// successor run, or the first sentinel slot): claim it.
		n.Keys[i], n.Vals[i] = k, v
		n.setOcc(i)
		n.count++
		return GappedEdit{Added: true, GapClaim: true}
	}
	// Slot i is occupied: open it by shifting entries toward the
	// nearest gap. Every slot strictly between the gap and i is
	// occupied, so the shifted region needs no bitmap fixup beyond
	// marking the consumed gap occupied.
	left, right := n.prevFree(i), n.nextFree(i)
	if right >= c || (left >= 0 && i-left <= right-i) {
		copy(n.Keys[left:i-1], n.Keys[left+1:i])
		copy(n.Vals[left:i-1], n.Vals[left+1:i])
		n.Keys[i-1], n.Vals[i-1] = k, v
		n.setOcc(left)
		n.count++
		return GappedEdit{Added: true, Shifted: i - 1 - left}
	}
	copy(n.Keys[i+1:right+1], n.Keys[i:right])
	copy(n.Vals[i+1:right+1], n.Vals[i:right])
	n.Keys[i], n.Vals[i] = k, v
	n.setOcc(right)
	n.count++
	return GappedEdit{Added: true, Shifted: right - i}
}

// DeleteGapped removes k from the gapped leaf n if present, freeing
// its slot by rewriting the entry's duplicate run with the successor
// entry (or the sentinel when k was the maximum).
func (n *Node) DeleteGapped(k keys.Key) GappedEdit {
	c := len(n.Keys)
	i := SearchGE(n.Keys, k)
	if i >= c || n.Keys[i] != k || !n.leafHasAt(i) {
		return GappedEdit{}
	}
	r := n.nextOcc(i) // the run's occupied anchor
	// Slot r+1 already holds exactly the fill pair: the successor
	// entry, a duplicate of it, or the sentinel tail.
	fk, fv := SentinelKey, keys.Value(0)
	if r+1 < c {
		fk, fv = n.Keys[r+1], n.Vals[r+1]
	}
	for j := i; j <= r; j++ {
		n.Keys[j], n.Vals[j] = fk, fv
	}
	n.clearOcc(r)
	n.count--
	return GappedEdit{Removed: true, Shifted: r - i + 1}
}

// PackLeafGapped rewrites the gapped leaf n to hold exactly the sorted
// entries ks/vs (len <= capacity) with its gaps spread evenly, the
// occupancy freshly split, bulk-loaded, and rebuilt leaves start from
// so nearby inserts find a gap in O(1).
func PackLeafGapped(n *Node, ks []keys.Key, vs []keys.Value) {
	c := len(n.Keys)
	m := len(ks)
	for i := range n.occ {
		n.occ[i] = 0
	}
	fk, fv := SentinelKey, keys.Value(0)
	j := m - 1
	for s := c - 1; s >= 0; s-- {
		if j >= 0 && s == j*c/m {
			fk, fv = ks[j], vs[j]
			n.setOcc(s)
			j--
		}
		n.Keys[s], n.Vals[s] = fk, fv
	}
	n.count = int32(m)
}

// AppendEntries collects n's entries in slot order onto ks/vs.
func (n *Node) AppendEntries(ks []keys.Key, vs []keys.Value) ([]keys.Key, []keys.Value) {
	for i := n.FirstSlot(); i < len(n.Keys); i = n.NextSlot(i) {
		ks = append(ks, n.Keys[i])
		vs = append(vs, n.Vals[i])
	}
	return ks, vs
}

// SetInternalGapped rewrites n as a gapped internal node over the
// dense child list and its separator keys (len(seps) == len(children)-1),
// sentinel-padding the key array to capacity. When the separator count
// exceeds capacity the array grows past it — a transient over-full
// state the caller resolves by splitting.
func SetInternalGapped(n *Node, capacity int, seps []keys.Key, children []*Node) {
	width := capacity
	if len(seps) > width {
		width = len(seps)
	}
	if cap(n.Keys) >= width {
		n.Keys = n.Keys[:width]
	} else {
		n.Keys = make([]keys.Key, width)
	}
	copy(n.Keys, seps)
	for i := len(seps); i < width; i++ {
		n.Keys[i] = SentinelKey
	}
	words := occWords(width)
	if cap(n.occ) >= words {
		n.occ = n.occ[:words]
	} else {
		n.occ = make([]uint64, words)
	}
	for i := range n.occ {
		n.occ[i] = 0
	}
	for i := range seps {
		n.setOcc(i)
	}
	n.count = int32(len(seps))
	n.Vals = nil
	if &n.Children[0] != &children[0] || len(n.Children) != len(children) {
		n.Children = append(n.Children[:0], children...)
	}
}

// internalInsertAt inserts separator sep at key index slot and child at
// child index slot+1 of a gapped internal node, growing the key array
// transiently when the dense separator prefix already fills it.
func (n *Node) internalInsertAt(slot int, sep keys.Key, child *Node) {
	cnt := int(n.count)
	if cnt == len(n.Keys) {
		n.Keys = append(n.Keys, SentinelKey)
		if occWords(len(n.Keys)) > len(n.occ) {
			n.occ = append(n.occ, 0)
		}
	}
	copy(n.Keys[slot+1:cnt+1], n.Keys[slot:cnt])
	n.Keys[slot] = sep
	n.setOcc(cnt)
	n.count++
	n.Children = append(n.Children, nil)
	copy(n.Children[slot+2:], n.Children[slot+1:])
	n.Children[slot+1] = child
}

// internalRemoveAt removes child slot and the separator to its left
// (slot >= 1), restoring the sentinel tail.
func (n *Node) internalRemoveAt(slot int) {
	cnt := int(n.count)
	copy(n.Keys[slot-1:cnt-1], n.Keys[slot:cnt])
	n.Keys[cnt-1] = SentinelKey
	n.clearOcc(cnt - 1)
	n.count--
	n.Children = append(n.Children[:slot], n.Children[slot+1:]...)
}
