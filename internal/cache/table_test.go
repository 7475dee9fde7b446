package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/keys"
)

// TestTableBackwardShiftChains hammers a tiny table with colliding
// keys through insert/remove cycles, checking that probe chains (and
// the payload columns that move with them) survive backward-shift
// deletion.
func TestTableBackwardShiftChains(t *testing.T) {
	c := New(4, LRU)
	// Insert 4, evict/remove by churn, and verify every resident key
	// stays findable with correct value.
	model := map[keys.Key]keys.Value{}
	r := rand.New(rand.NewSource(2))
	for op := 0; op < 20000; op++ {
		k := keys.Key(r.Intn(12))
		v := keys.Value(op)
		fl, ev := c.WriteInsert(k, v)
		if ev {
			if _, ok := model[fl.Key]; !ok {
				t.Fatalf("op %d: evicted non-resident key %d", op, fl.Key)
			}
			delete(model, fl.Key)
		}
		model[k] = v
		if len(model) != c.Len() {
			t.Fatalf("op %d: len %d vs model %d", op, c.Len(), len(model))
		}
		// Every model key must be resident with its exact value.
		for mk, mv := range model {
			e, ok := c.Lookup(mk)
			if !ok || e.Value != mv {
				t.Fatalf("op %d: Lookup(%d) = %+v, %v; want %d", op, mk, e, ok, mv)
			}
		}
	}
}

func TestInCyclicRange(t *testing.T) {
	cases := []struct {
		home, hole, j uint64
		want          bool
	}{
		{home: 5, hole: 4, j: 6, want: true},   // within (4,6]
		{home: 4, hole: 4, j: 6, want: false},  // at the hole
		{home: 7, hole: 4, j: 6, want: false},  // beyond j
		{home: 15, hole: 14, j: 1, want: true}, // wrapped: (14,1]
		{home: 0, hole: 14, j: 1, want: true},
		{home: 5, hole: 14, j: 1, want: false},
	}
	for _, cse := range cases {
		if got := inCyclicRange(cse.home, cse.hole, cse.j); got != cse.want {
			t.Errorf("inCyclicRange(%d,%d,%d) = %v, want %v", cse.home, cse.hole, cse.j, got, cse.want)
		}
	}
}

// Property: random op sequences against a model map never diverge,
// including FlushAll interleavings.
func TestTableModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(16)
		c := New(capacity, LRU)
		model := map[keys.Key]Entry{}
		// OnEvict keeps the model exact even for clean evictions,
		// which return no flush query.
		bad := false
		c.OnEvict = func(k keys.Key) {
			if _, ok := model[k]; !ok {
				bad = true
			}
			delete(model, k)
		}
		for op := 0; op < 600; op++ {
			k := keys.Key(r.Intn(40))
			switch r.Intn(5) {
			case 0:
				e, ok := c.Lookup(k)
				m, mok := model[k]
				if ok != mok {
					return false
				}
				if ok && (e.Value != m.Value || e.Tombstone != m.Tombstone || e.Dirty != m.Dirty) {
					return false
				}
			case 1:
				fl, ev := c.WriteInsert(k, keys.Value(op))
				if ev && fl.Op != keys.OpInsert && fl.Op != keys.OpDelete {
					return false
				}
				model[k] = Entry{Key: k, Value: keys.Value(op), Dirty: true}
			case 2:
				c.WriteDelete(k)
				model[k] = Entry{Key: k, Tombstone: true, Dirty: true}
			case 3:
				fl := c.FlushAll()
				dirty := 0
				for _, m := range model {
					if m.Dirty {
						dirty++
					}
				}
				if len(fl) != dirty {
					return false
				}
				for mk, m := range model {
					m.Dirty = false
					model[mk] = m
				}
			default:
				if c.Contains(k) != func() bool { _, ok := model[k]; return ok }() {
					return false
				}
			}
			if bad || c.Len() > capacity || c.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// snapshot copies every column of the table, for byte-level diffs.
func snapshot(t *table) table {
	cp := *t
	cp.keys = slices.Clone(t.keys)
	cp.occ = slices.Clone(t.occ)
	cp.vals = slices.Clone(t.vals)
	cp.flags = slices.Clone(t.flags)
	return cp
}

// changedBytes counts the bytes in which two snapshots differ, column
// by column, plus one per changed scalar field.
func changedBytes(a, b table) int {
	n := 0
	diff := func(x, y []byte) {
		for i := range x {
			if x[i] != y[i] {
				n++
			}
		}
	}
	diff(bytesOf(a.keys), bytesOf(b.keys))
	diff(bytesOf(a.occ), bytesOf(b.occ))
	diff(bytesOf(a.vals), bytesOf(b.vals))
	diff(a.flags, b.flags)
	if a.mask != b.mask || a.used != b.used || a.hand != b.hand {
		n++
	}
	return n
}

func bytesOf[T keys.Key | keys.Value | uint64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
}

// TestLookupHitWritesOneByte pins the cost of a hit: it raises the
// slot's reference level and changes nothing else — one byte of the
// whole table.
func TestLookupHitWritesOneByte(t *testing.T) {
	c := New(1024, LRU)
	for k := keys.Key(0); k < 1024; k++ {
		c.WriteInsert(k*7919, keys.Value(k))
	}
	for _, k := range []keys.Key{0, 7919 * 500, 7919 * 1023} {
		before := snapshot(c.t)
		e, ok := c.Lookup(k)
		if !ok || e.Value != keys.Value(k/7919) {
			t.Fatalf("Lookup(%d) = %+v, %v", k, e, ok)
		}
		if n := changedBytes(before, *c.t); n != 1 {
			t.Fatalf("Lookup(%d) hit changed %d bytes of the table, want 1", k, n)
		}
		i := c.t.find(k)
		if c.t.flags[i] != touched(before.flags[i]) {
			t.Fatalf("Lookup(%d) flags %08b -> %08b, want a hit's reference level", k, before.flags[i], c.t.flags[i])
		}
		// A miss writes nothing.
		before = snapshot(c.t)
		if _, ok := c.Lookup(k + 1); ok {
			t.Fatalf("Lookup(%d) hit", k+1)
		}
		if n := changedBytes(before, *c.t); n != 0 {
			t.Fatalf("Lookup miss changed %d bytes", n)
		}
	}
}

// TestCLOCKHandSweepsSlotOrder: with every resident at the same
// reference level, successive admissions evict them in slot-index order
// from the hand. The residents sit at their home slots, so no backward
// shift moves one behind the hand.
func TestCLOCKHandSweepsSlotOrder(t *testing.T) {
	const k = 32
	c := New(k, LRU)
	homes := map[uint64]bool{}
	for key := keys.Key(0); c.Len() < k; key++ {
		if h := c.t.hash(key); !homes[h] {
			homes[h] = true
			c.Admit(key, 0)
		}
	}
	var order []keys.Key // residents in slot order
	c.t.each(func(i int) { order = append(order, c.t.keys[i]) })
	var victims []keys.Key
	c.OnEvict = func(v keys.Key) { victims = append(victims, v) }
	// The first admission lowers every resident to level 0 in one lap
	// and evicts the first; the rest follow in one more lap, which the
	// admitted keys (level 1) survive.
	for i := keys.Key(0); i < k; i++ {
		c.Admit(1<<40+i, 0)
	}
	if !slices.Equal(victims, order) {
		t.Fatalf("victims %v, want slot order %v", victims, order)
	}
}

// TestProbeDefineConcurrentDisjoint runs the phase-1 API — Probe on
// resident and absent keys, Define on resident ones — from P goroutines
// on disjoint keys, as the engine's parallel cache pass does. Under the
// race detector it proves the goroutines share no written byte; the
// final state must match a serial run.
func TestProbeDefineConcurrentDisjoint(t *testing.T) {
	const P, perWorker = 4, 512
	c := New(P*perWorker, LRU)
	for k := keys.Key(0); k < P*perWorker; k++ {
		if k%3 == 0 {
			c.WriteDelete(k)
		} else {
			c.Admit(k, keys.Value(k))
		}
	}
	var wg sync.WaitGroup
	tallies := make([][2]int, P)
	for w := 0; w < P; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keys.Key(i*P + w) // disjoint across workers
				e, s, ok := c.Probe(k)
				if !ok || e.Tombstone != (k%3 == 0) {
					t.Errorf("Probe(%d) = %+v, %v", k, e, ok)
					return
				}
				tallies[w][0]++
				c.Define(s, keys.Value(k)+1, k%2 == 0)
				if _, _, ok := c.Probe(keys.Key(1<<40) + k); ok {
					t.Errorf("Probe of absent key %d hit", k)
				}
				tallies[w][1]++
			}
		}(w)
	}
	wg.Wait()
	for _, tl := range tallies {
		c.Count(tl[0], tl[1])
	}
	if h, m, _ := c.Stats(); h != P*perWorker || m != P*perWorker {
		t.Fatalf("Stats = %d hits, %d misses, want %d each", h, m, P*perWorker)
	}
	for k := keys.Key(0); k < P*perWorker; k++ {
		e, ok := c.Lookup(k)
		if !ok || !e.Dirty || e.Tombstone != (k%2 == 0) || (!e.Tombstone && e.Value != keys.Value(k)+1) {
			t.Fatalf("after Define, key %d = %+v, %v", k, e, ok)
		}
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := New(1<<16, LRU)
	for i := 0; i < 1<<16; i++ {
		c.WriteInsert(keys.Key(i), keys.Value(i))
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys.Key(r.Intn(1 << 16)))
	}
}

func BenchmarkCacheWriteChurn(b *testing.B) {
	c := New(1<<12, LRU)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.WriteInsert(keys.Key(r.Intn(1<<16)), keys.Value(i))
	}
}
