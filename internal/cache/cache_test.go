package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" {
		t.Fatal("policy name changed")
	}
	if Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy formatting")
	}
}

func TestLookupMissAndHit(t *testing.T) {
	c := New(2, LRU)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("empty cache hit")
	}
	c.WriteInsert(1, 10)
	e, ok := c.Lookup(1)
	if !ok || e.Value != 10 || e.Tombstone || !e.Dirty {
		t.Fatalf("entry = %+v, ok=%v", e, ok)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestWriteUpdatesInPlace(t *testing.T) {
	c := New(2, LRU)
	c.WriteInsert(1, 10)
	if fl, ev := c.WriteInsert(1, 20); ev {
		t.Fatalf("update evicted %v", fl)
	}
	e, _ := c.Lookup(1)
	if e.Value != 20 {
		t.Fatalf("value = %d, want 20", e.Value)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestTombstone(t *testing.T) {
	c := New(2, LRU)
	c.WriteDelete(5)
	e, ok := c.Lookup(5)
	if !ok || !e.Tombstone || !e.Dirty {
		t.Fatalf("tombstone entry = %+v, ok=%v", e, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, LRU)
	c.WriteInsert(1, 1)
	c.WriteInsert(2, 2)
	c.Lookup(1) // 1 becomes MRU; 2 is LRU
	fl, ev := c.WriteInsert(3, 3)
	if !ev {
		t.Fatal("no eviction at capacity")
	}
	if fl.Op != keys.OpInsert || fl.Key != 2 || fl.Value != 2 || fl.Idx != -1 {
		t.Fatalf("flush = %v, want I(2,2)@-1", fl)
	}
	if c.Contains(2) || !c.Contains(1) || !c.Contains(3) {
		t.Fatalf("residency after eviction: 1:%v 2:%v 3:%v", c.Contains(1), c.Contains(2), c.Contains(3))
	}
}

// TestCLOCKSecondChance: a hit earns an entry two sweeps of the hand and
// an admission one. When every entry is at the hit level the hand lowers
// them all and evicts the first to reach level 0; a hit entry then
// outlives an entry that was only admitted.
func TestCLOCKSecondChance(t *testing.T) {
	c := New(2, LRU)
	c.WriteInsert(1, 1)
	c.WriteInsert(2, 2)
	c.Lookup(1)
	c.Lookup(2)
	fl, ev := c.WriteInsert(3, 3)
	if !ev || c.Len() != 2 || !c.Contains(3) {
		t.Fatalf("CLOCK eviction failed: flush %v (%v), len=%d", fl, ev, c.Len())
	}
	survivor := keys.Key(1)
	if fl.Key == 1 {
		survivor = 2
	}
	if !c.Contains(survivor) {
		t.Fatalf("evicted %v and lost key %d too", fl, survivor)
	}
	// A new hit lifts the survivor back to the hit level, above the
	// newcomer's admission level, so the newcomer goes first.
	c.Lookup(survivor)
	if fl, ev := c.WriteInsert(4, 4); !ev || fl.Key != 3 {
		t.Fatalf("evicted %v (%v), want the merely admitted key 3", fl, ev)
	}
}

func TestEvictCleanEntryNoFlush(t *testing.T) {
	c := New(1, LRU)
	c.Admit(1, 10) // clean
	fl, ev := c.WriteInsert(2, 20)
	if ev {
		t.Fatalf("clean eviction produced flush %v", fl)
	}
	if c.Contains(1) || !c.Contains(2) {
		t.Fatal("admission after clean eviction failed")
	}
}

func TestTombstoneFlushIsDelete(t *testing.T) {
	c := New(1, LRU)
	c.WriteDelete(1)
	fl, ev := c.WriteInsert(2, 2)
	if !ev || fl.Op != keys.OpDelete || fl.Key != 1 {
		t.Fatalf("flush = %v (evicted=%v), want D(1)", fl, ev)
	}
}

func TestAdmitUpdatesExisting(t *testing.T) {
	c := New(2, LRU)
	c.WriteDelete(1)
	c.Admit(1, 5)
	e, _ := c.Lookup(1)
	if e.Tombstone || e.Value != 5 {
		t.Fatalf("entry = %+v", e)
	}
	// Admit keeps the dirty bit decision simple: entry was dirty and
	// stays resident; FlushAll must still emit it as an insert now.
	fl := c.FlushAll()
	if len(fl) != 1 || fl[0].Op != keys.OpInsert || fl[0].Value != 5 {
		t.Fatalf("FlushAll = %v", fl)
	}
}

func TestFlushAllMarksClean(t *testing.T) {
	c := New(4, LRU)
	c.WriteInsert(1, 1)
	c.WriteInsert(2, 2)
	c.WriteDelete(3)
	fl := c.FlushAll()
	if len(fl) != 3 {
		t.Fatalf("FlushAll = %v", fl)
	}
	if fl2 := c.FlushAll(); len(fl2) != 0 {
		t.Fatalf("second FlushAll = %v, want empty", fl2)
	}
	if c.Len() != 3 {
		t.Fatal("FlushAll must keep entries resident")
	}
}

func TestAdmitAbsentTombstone(t *testing.T) {
	c := New(2, LRU)
	if c.Capacity() != 2 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	if fl, ev := c.AdmitAbsent(5); ev {
		t.Fatalf("AdmitAbsent evicted %v on empty cache", fl)
	}
	e, ok := c.Lookup(5)
	if !ok || !e.Tombstone || e.Dirty {
		t.Fatalf("trained-absent entry = %+v, ok=%v; want clean tombstone", e, ok)
	}
	// A clean tombstone evicts silently (nothing owed to the tree).
	c.AdmitAbsent(6)
	if fl, ev := c.AdmitAbsent(7); ev {
		t.Fatalf("clean tombstone eviction produced flush %v", fl)
	}
	// Re-admitting a resident key is a recency-only no-op.
	c.WriteInsert(7, 77)
	c.AdmitAbsent(7)
	if e, _ := c.Lookup(7); e.Tombstone || e.Value != 77 {
		t.Fatalf("AdmitAbsent clobbered resident entry: %+v", e)
	}
	// Disabled cache ignores admission.
	d := New(0, LRU)
	if _, ev := d.AdmitAbsent(1); ev || d.Len() != 0 {
		t.Fatal("disabled cache admitted")
	}
	if _, ev := d.Admit(1, 1); ev || d.Len() != 0 {
		t.Fatal("disabled cache admitted via Admit")
	}
}

func TestZeroCapacityDisabled(t *testing.T) {
	c := New(0, LRU)
	if fl, ev := c.WriteInsert(1, 1); ev {
		t.Fatalf("disabled cache evicted %v", fl)
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("disabled cache hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// Property: a cache backed by a model map behaves identically for
// lookups, and capacity is never exceeded, under random operations.
func TestCacheModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(8)
		c := New(capacity, LRU)
		model := map[keys.Key]Entry{} // resident contents
		for op := 0; op < 500; op++ {
			k := keys.Key(r.Intn(16))
			switch r.Intn(3) {
			case 0:
				e, ok := c.Lookup(k)
				m, mok := model[k]
				if ok != mok {
					return false
				}
				if ok && (e.Value != m.Value || e.Tombstone != m.Tombstone) {
					return false
				}
			case 1:
				fl, ev := c.WriteInsert(k, keys.Value(op))
				if ev {
					me, ok := model[fl.Key]
					if !ok || !me.Dirty {
						return false // evicted flush must match a dirty resident
					}
					delete(model, fl.Key)
				}
				model[k] = Entry{Key: k, Value: keys.Value(op), Dirty: true}
			default:
				fl, ev := c.WriteDelete(k)
				if ev {
					if _, ok := model[fl.Key]; !ok {
						return false
					}
					delete(model, fl.Key)
				}
				model[k] = Entry{Key: k, Tombstone: true, Dirty: true}
			}
			if c.Len() > capacity || c.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
