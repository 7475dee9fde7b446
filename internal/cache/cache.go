// Package cache implements the top-K cache of §V-B: a small,
// fixed-capacity software cache carrying the hot key-value state across
// batches so that queries on cache-resident keys never reach the B+
// tree (the inter-batch optimization).
//
// The paper leaves the write policy implicit; this implementation is a
// write-back cache (see DESIGN.md §4.3): defining queries on resident
// keys mark the entry dirty — inserts store the value, deletes store a
// tombstone — and the entry's state is flushed to the tree as an
// ordinary insert/delete query when it is evicted (or when FlushAll is
// called). The tree plus the cache's dirty entries therefore always
// jointly equal the serial-semantics store, which the differential
// tests verify.
//
// Storage is a fixed-size open-addressing hash table with the recency
// list threaded through slot indices (see table.go), exploiting the
// fixed capacity exactly as §V-B suggests ("the hash function can be
// designed in an efficient way so that hashing conflicts can be
// minimized"): no per-entry allocation, no pointer chasing.
//
// Replacement policies: LRU (default, as the paper suggests), FIFO, and
// CLOCK, selectable for the ablation benchmarks.
package cache

import (
	"fmt"

	"repro/internal/keys"
)

// Policy selects the replacement policy.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	CLOCK
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case CLOCK:
		return "clock"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Entry is a snapshot of one cached key's state.
type Entry struct {
	Key keys.Key
	// Value is the cached value; meaningless when Tombstone.
	Value keys.Value
	// Tombstone records a cached deletion: the key is known absent.
	Tombstone bool
	// Dirty reports whether the entry diverges from the tree and must
	// be flushed on eviction.
	Dirty bool
}

// TopK is the fixed-capacity cache. Not safe for concurrent use: the
// Engine runs the cache pass as a single sequential superstep, which is
// cheap because after QTrans at most two queries per distinct key
// remain (§V-B: "cache operations will be reduced to a minimum").
type TopK struct {
	capacity int
	policy   Policy
	t        *table

	// OnEvict, when non-nil, observes every eviction (clean or dirty)
	// with the victim's key. Dirty evictions additionally surface as
	// flush queries from the write/admit methods.
	OnEvict func(keys.Key)

	hits, misses, evictions int64
}

// New creates a cache holding at most capacity entries. capacity <= 0
// disables the cache (every lookup misses, admits are dropped).
func New(capacity int, policy Policy) *TopK {
	c := &TopK{capacity: capacity, policy: policy}
	if capacity > 0 {
		c.t = newTable(capacity)
	}
	return c
}

// Capacity returns the configured capacity (K).
func (c *TopK) Capacity() int { return c.capacity }

// Len returns the number of resident entries.
func (c *TopK) Len() int {
	if c.t == nil {
		return 0
	}
	return c.t.used
}

// Stats returns hit, miss, and eviction counts since creation.
func (c *TopK) Stats() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}

// Lookup returns a snapshot of k's entry if resident, updating recency.
func (c *TopK) Lookup(k keys.Key) (Entry, bool) {
	if c.t == nil {
		c.misses++
		return Entry{}, false
	}
	idx := c.t.find(k)
	if idx < 0 {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.touch(idx)
	s := &c.t.slots[idx]
	return Entry{Key: s.key, Value: s.value, Tombstone: s.tombstone, Dirty: s.dirty}, true
}

// Contains reports residency without recency update or stats counting.
func (c *TopK) Contains(k keys.Key) bool {
	return c.t != nil && c.t.find(k) >= 0
}

// WriteInsert records I(k, v) into the cache. If k is not resident it
// is admitted, possibly evicting another entry, which is returned as a
// flush query (evicted=true). The admitted/updated entry becomes dirty.
func (c *TopK) WriteInsert(k keys.Key, v keys.Value) (flush keys.Query, evicted bool) {
	return c.write(k, v, false)
}

// WriteDelete records D(k) into the cache as a tombstone; like
// WriteInsert it may evict.
func (c *TopK) WriteDelete(k keys.Key) (flush keys.Query, evicted bool) {
	return c.write(k, 0, true)
}

func (c *TopK) write(k keys.Key, v keys.Value, tomb bool) (keys.Query, bool) {
	if c.t == nil {
		return keys.Query{}, false
	}
	if idx := c.t.find(k); idx >= 0 {
		s := &c.t.slots[idx]
		s.value, s.tombstone, s.dirty = v, tomb, true
		c.touch(idx)
		return keys.Query{}, false
	}
	var flush keys.Query
	evicted := false
	if c.t.used >= c.capacity {
		flush, evicted = c.evict(c.selectVictim())
	}
	idx := c.t.insert(k)
	s := &c.t.slots[idx]
	s.value, s.tombstone, s.dirty, s.ref = v, tomb, true, true
	c.t.pushHead(idx)
	return flush, evicted
}

// Admit inserts a clean entry (pre-population / training, §V-B),
// evicting as needed; any eviction flush is returned.
func (c *TopK) Admit(k keys.Key, v keys.Value) (flush keys.Query, evicted bool) {
	return c.admit(k, v, false)
}

// AdmitAbsent inserts a clean tombstone: the key is known absent from
// the tree (training a hot key that has no record yet). Evicts as
// needed.
func (c *TopK) AdmitAbsent(k keys.Key) (flush keys.Query, evicted bool) {
	return c.admit(k, 0, true)
}

func (c *TopK) admit(k keys.Key, v keys.Value, tomb bool) (keys.Query, bool) {
	if c.t == nil {
		return keys.Query{}, false
	}
	if idx := c.t.find(k); idx >= 0 {
		s := &c.t.slots[idx]
		if !tomb {
			// Refresh a resident entry with authoritative tree state;
			// the dirty bit is preserved (the entry may carry newer
			// writes than the tree).
			s.value, s.tombstone = v, false
		}
		// For tombstone admission of a resident entry the existing
		// state is at least as fresh; only recency updates.
		c.touch(idx)
		return keys.Query{}, false
	}
	var flush keys.Query
	evicted := false
	if c.t.used >= c.capacity {
		flush, evicted = c.evict(c.selectVictim())
	}
	idx := c.t.insert(k)
	s := &c.t.slots[idx]
	s.value, s.tombstone, s.ref = v, tomb, true
	c.t.pushHead(idx)
	return flush, evicted
}

// evict removes slot idx, returning the flush query for a dirty entry.
func (c *TopK) evict(idx int32) (keys.Query, bool) {
	s := c.t.slots[idx]
	c.t.remove(idx)
	c.evictions++
	if c.OnEvict != nil {
		c.OnEvict(s.key)
	}
	if !s.dirty {
		return keys.Query{}, false
	}
	if s.tombstone {
		return keys.Query{Op: keys.OpDelete, Key: s.key, Idx: -1}, true
	}
	return keys.Query{Op: keys.OpInsert, Key: s.key, Value: s.value, Idx: -1}, true
}

// FlushAll drains every dirty entry as flush queries (order is
// unspecified; callers sort as needed) and marks entries clean.
// Entries stay resident.
func (c *TopK) FlushAll() []keys.Query {
	if c.t == nil {
		return nil
	}
	var out []keys.Query
	for i := range c.t.slots {
		s := &c.t.slots[i]
		if !s.occupied || !s.dirty {
			continue
		}
		if s.tombstone {
			out = append(out, keys.Query{Op: keys.OpDelete, Key: s.key, Idx: -1})
		} else {
			out = append(out, keys.Query{Op: keys.OpInsert, Key: s.key, Value: s.value, Idx: -1})
		}
		s.dirty = false
	}
	return out
}

// Drain empties the cache entirely: every dirty entry is returned as
// a flush query (order is unspecified; callers sort as needed) and
// every entry — clean or dirty — is dropped. The engine drains before
// batches that bypass the cache pass (scan/RMW batches): clean
// residents would otherwise serve stale values once the tree mutates
// underneath them. Drops are not counted as evictions and do not
// invoke OnEvict.
func (c *TopK) Drain() []keys.Query {
	if c.t == nil || c.t.used == 0 {
		return nil // nothing to walk: scan batches drain every time
	}
	out := c.FlushAll()
	c.t = newTable(c.capacity)
	return out
}

// DrainRange is Drain restricted to keys in [lo, hi): in-range dirty
// entries are returned as flush queries (order unspecified) and every
// in-range entry — clean or dirty — is dropped; out-of-range entries
// are untouched. The shard migration path uses this to hand a key
// range's cached state over with its tree slice while the rest of the
// donor's working set stays warm. Like Drain, drops are not counted as
// evictions and do not invoke OnEvict.
func (c *TopK) DrainRange(lo, hi keys.Key) []keys.Query {
	if c.t == nil || lo >= hi {
		return nil
	}
	// Collect first, remove second: table removal back-shifts slots, so
	// removing while walking the slot array could skip entries.
	var victims []keys.Key
	var out []keys.Query
	for i := range c.t.slots {
		s := &c.t.slots[i]
		if !s.occupied || s.key < lo || s.key >= hi {
			continue
		}
		victims = append(victims, s.key)
		if !s.dirty {
			continue
		}
		if s.tombstone {
			out = append(out, keys.Query{Op: keys.OpDelete, Key: s.key, Idx: -1})
		} else {
			out = append(out, keys.Query{Op: keys.OpInsert, Key: s.key, Value: s.value, Idx: -1})
		}
	}
	for _, k := range victims {
		if idx := c.t.find(k); idx >= 0 {
			c.t.remove(idx)
		}
	}
	return out
}

// selectVictim picks the slot to evict per the policy.
func (c *TopK) selectVictim() int32 {
	switch c.policy {
	case CLOCK:
		// Sweep from the hand towards the head (wrapping to the
		// tail), clearing reference bits until an unreferenced entry
		// is found.
		for {
			if c.t.hand < 0 {
				c.t.hand = c.t.tail
			}
			idx := c.t.hand
			c.t.hand = c.t.slots[idx].prev
			if !c.t.slots[idx].ref {
				return idx
			}
			c.t.slots[idx].ref = false
		}
	default: // LRU and FIFO both evict the tail.
		return c.t.tail
	}
}

// touch updates recency on access.
func (c *TopK) touch(idx int32) {
	c.t.slots[idx].ref = true
	if c.policy == LRU && c.t.head != idx {
		c.t.unlink(idx)
		c.t.pushHead(idx)
	}
}

// Keys returns the resident keys in recency order (most recent first).
// Intended for tests.
func (c *TopK) Keys() []keys.Key {
	if c.t == nil {
		return nil
	}
	out := make([]keys.Key, 0, c.t.used)
	for i := c.t.head; i >= 0; i = c.t.slots[i].next {
		out = append(out, c.t.slots[i].key)
	}
	return out
}
