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
// Storage is a fixed-size open-addressing hash table whose probed key
// column and occupancy bitmap are kept apart from the per-slot value
// and flag bytes (see table.go), exploiting the fixed capacity exactly
// as §V-B suggests ("the hash function can be designed in an efficient
// way so that hashing conflicts can be minimized"): no per-entry
// allocation, no pointer chasing. Replacement is CLOCK over slot
// indices, the approximation of the paper's LRU that costs a hit one
// byte write.
//
// The engine runs its cache pass in two phases (core's cachePass):
// Probe and Define, which change no table structure and no shared
// counter, run from many goroutines on disjoint keys; admissions and
// evictions then run serially.
package cache

import (
	"fmt"

	"repro/internal/keys"
)

// Policy names the replacement policy. It has a single value, LRU,
// which CLOCK over slot indices approximates.
type Policy int

// LRU is the only policy: least-recently-used replacement as the paper
// suggests, served by CLOCK.
const LRU Policy = 0

// String names the policy.
func (p Policy) String() string {
	if p == LRU {
		return "lru"
	}
	return fmt.Sprintf("policy(%d)", int(p))
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

// Slot is the table position of a resident entry, as returned by
// Probe. It stays valid until the next admission, eviction or drain.
type Slot int32

// TopK is the fixed-capacity cache. Only Probe and Define may run
// concurrently, on distinct keys, and only while nothing else runs.
type TopK struct {
	capacity int
	t        *table

	// OnEvict, when non-nil, observes every eviction (clean or dirty)
	// with the victim's key. Dirty evictions additionally surface as
	// flush queries from the write/admit methods.
	OnEvict func(keys.Key)

	hits, misses, evictions int64
}

// New creates a cache holding at most capacity entries. capacity <= 0
// disables the cache (every lookup misses, admits are dropped). LRU is
// the only policy.
func New(capacity int, _ Policy) *TopK {
	c := &TopK{capacity: capacity}
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

// Lookup returns a snapshot of k's entry if resident, raising its
// reference level, and counts the hit or miss.
func (c *TopK) Lookup(k keys.Key) (Entry, bool) {
	e, _, ok := c.Probe(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Probe is Lookup without the counting: it returns a snapshot of k's
// entry and its slot if k is resident, raising the slot's reference
// level. It reads the key column and bitmap and writes only the slot's
// flag byte, so goroutines may Probe and Define distinct keys
// concurrently while no admission, eviction or drain runs. Fold their
// hit and miss tallies in with Count afterwards.
func (c *TopK) Probe(k keys.Key) (Entry, Slot, bool) {
	if c.t == nil {
		return Entry{}, -1, false
	}
	i := c.t.find(k)
	if i < 0 {
		return Entry{}, -1, false
	}
	f := c.t.flags[i]
	c.t.flags[i] = touched(f)
	return Entry{Key: k, Value: c.t.vals[i], Tombstone: f&flagTomb != 0, Dirty: f&flagDirty != 0}, Slot(i), true
}

// Define records I(k, v) — or D(k) when tomb — into the resident slot s
// that Probe returned, making it dirty at a hit's reference level. It writes only
// s's value and flag bytes; see Probe for what may run beside it.
func (c *TopK) Define(s Slot, v keys.Value, tomb bool) {
	f := flagDirty | refHit
	if tomb {
		f |= flagTomb
	}
	c.t.vals[s], c.t.flags[s] = v, f
}

// Count adds hits and misses tallied outside the cache (by the callers
// of Probe) to Stats.
func (c *TopK) Count(hits, misses int) {
	c.hits += int64(hits)
	c.misses += int64(misses)
}

// Contains reports residency without touching the reference level or
// counting.
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
	if i := c.t.find(k); i >= 0 {
		c.Define(Slot(i), v, tomb)
		return keys.Query{}, false
	}
	flush, evicted := c.makeRoom()
	i := c.t.insert(k)
	c.t.vals[i] = v
	c.t.flags[i] = flagDirty | refOne
	if tomb {
		c.t.flags[i] |= flagTomb
	}
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
	if i := c.t.find(k); i >= 0 {
		f := touched(c.t.flags[i])
		if !tomb {
			// Refresh a resident entry with authoritative tree state;
			// the dirty bit is preserved (the entry may carry newer
			// writes than the tree).
			c.t.vals[i] = v
			f &^= flagTomb
		}
		// For tombstone admission of a resident entry the existing
		// state is at least as fresh; only the reference level changes.
		c.t.flags[i] = f
		return keys.Query{}, false
	}
	flush, evicted := c.makeRoom()
	i := c.t.insert(k)
	c.t.vals[i] = v
	c.t.flags[i] = refOne
	if tomb {
		c.t.flags[i] |= flagTomb
	}
	return flush, evicted
}

// makeRoom evicts the CLOCK victim when the cache is full, returning
// the flush query owed for a dirty victim.
func (c *TopK) makeRoom() (keys.Query, bool) {
	if c.t.used < c.capacity {
		return keys.Query{}, false
	}
	i := c.t.victim()
	k, v, f := c.t.keys[i], c.t.vals[i], c.t.flags[i]
	c.t.remove(i)
	c.evictions++
	if c.OnEvict != nil {
		c.OnEvict(k)
	}
	if f&flagDirty == 0 {
		return keys.Query{}, false
	}
	return flushQuery(k, v, f), true
}

// flushQuery is the tree query that writes a dirty entry back.
func flushQuery(k keys.Key, v keys.Value, f uint8) keys.Query {
	if f&flagTomb != 0 {
		return keys.Query{Op: keys.OpDelete, Key: k, Idx: -1}
	}
	return keys.Query{Op: keys.OpInsert, Key: k, Value: v, Idx: -1}
}

// FlushAll drains every dirty entry as flush queries (order is
// unspecified; callers sort as needed) and marks entries clean.
// Entries stay resident.
func (c *TopK) FlushAll() []keys.Query {
	if c.t == nil {
		return nil
	}
	var out []keys.Query
	c.t.each(func(i int) {
		if f := c.t.flags[i]; f&flagDirty != 0 {
			out = append(out, flushQuery(c.t.keys[i], c.t.vals[i], f))
			c.t.flags[i] = f &^ flagDirty
		}
	})
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
	c.t.each(func(i int) {
		k := c.t.keys[i]
		if k < lo || k >= hi {
			return
		}
		victims = append(victims, k)
		if f := c.t.flags[i]; f&flagDirty != 0 {
			out = append(out, flushQuery(k, c.t.vals[i], f))
		}
	})
	for _, k := range victims {
		if i := c.t.find(k); i >= 0 {
			c.t.remove(i)
		}
	}
	return out
}
