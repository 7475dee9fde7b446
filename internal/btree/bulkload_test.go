package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsBadInput(t *testing.T) {
	if _, err := BulkLoad(8, []keys.Key{1, 2}, []keys.Value{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := BulkLoad(8, []keys.Key{2, 1}, []keys.Value{1, 2}); err == nil {
		t.Fatal("descending keys accepted")
	}
	if _, err := BulkLoad(8, []keys.Key{1, 1}, []keys.Value{1, 2}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := BulkLoad(1, []keys.Key{1}, []keys.Value{1}); err == nil {
		t.Fatal("invalid order accepted")
	}
}

func TestBulkLoadSizesAndContents(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 63, 64, 65, 1000, 12345} {
		for _, order := range []int{3, 4, 16, 64} {
			ks := make([]keys.Key, n)
			vs := make([]keys.Value, n)
			for i := range ks {
				ks[i] = keys.Key(i * 3)
				vs[i] = keys.Value(i)
			}
			tr, err := BulkLoad(order, ks, vs)
			if err != nil {
				t.Fatalf("n=%d order=%d: %v", n, order, err)
			}
			if tr.Len() != n {
				t.Fatalf("n=%d order=%d: Len = %d", n, order, tr.Len())
			}
			if err := tr.Validate(StrictFill); err != nil {
				t.Fatalf("n=%d order=%d: %v", n, order, err)
			}
			// Spot-check lookups.
			for i := 0; i < n; i += 1 + n/37 {
				v, ok := tr.Search(keys.Key(i * 3))
				if !ok || v != keys.Value(i) {
					t.Fatalf("n=%d order=%d: Search(%d) = %d,%v", n, order, i*3, v, ok)
				}
			}
			if _, ok := tr.Search(1); n > 1 && ok {
				t.Fatal("found a key that was never loaded")
			}
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	n := 5000
	ks := make([]keys.Key, n)
	vs := make([]keys.Value, n)
	for i := range ks {
		ks[i] = keys.Key(i * 2)
		vs[i] = keys.Value(i)
	}
	tr, err := BulkLoad(16, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	// Inserts into the gaps and deletes must keep the tree valid.
	for i := 1; i < 2*n; i += 40 {
		tr.Insert(keys.Key(i), keys.Value(i))
	}
	for i := 0; i < 2*n; i += 80 {
		tr.Delete(keys.Key(i))
	}
	if err := tr.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadMatchesSerialInserts(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		order := 3 + r.Intn(20)
		seen := map[keys.Key]keys.Value{}
		for _, x := range raw {
			seen[keys.Key(x)] = keys.Value(x) + 1
		}
		ks := make([]keys.Key, 0, len(seen))
		for k := range seen {
			ks = append(ks, k)
		}
		sortKeys(ks)
		vs := make([]keys.Value, len(ks))
		for i, k := range ks {
			vs[i] = seen[k]
		}
		bl, err := BulkLoad(order, ks, vs)
		if err != nil || bl.Validate(StrictFill) != nil {
			return false
		}
		ref := MustNew(order)
		for i, k := range ks {
			ref.Insert(k, vs[i])
		}
		bk, bv := bl.Dump()
		rk, rv := ref.Dump()
		if len(bk) != len(rk) {
			return false
		}
		for i := range bk {
			if bk[i] != rk[i] || bv[i] != rv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sortKeys(ks []keys.Key) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func TestBulkLoadPairs(t *testing.T) {
	pairs := []keys.Query{
		keys.Insert(5, 50),
		keys.Insert(1, 10),
		keys.Insert(5, 51), // duplicate: last write wins
		keys.Insert(3, 30),
	}
	tr, err := BulkLoadPairs(8, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if v, ok := tr.Search(5); !ok || v != 51 {
		t.Fatalf("Search(5) = %d,%v; want last write 51", v, ok)
	}
	if _, err := BulkLoadPairs(8, []keys.Query{keys.Delete(1)}); err == nil {
		t.Fatal("non-insert pair accepted")
	}
}

func TestChunkSizes(t *testing.T) {
	for _, c := range []struct{ n, target, min int }{
		{1, 8, 3}, {8, 8, 3}, {9, 8, 3}, {100, 8, 3}, {17, 16, 7}, {65, 56, 31},
	} {
		sizes := chunkSizes(c.n, c.target, c.min)
		sum := 0
		for i, s := range sizes {
			sum += s
			if s > c.target+c.min { // merged tail may exceed target but stays bounded
				t.Fatalf("chunkSizes(%v) chunk %d = %d too large: %v", c, i, s, sizes)
			}
			if len(sizes) > 1 && s < c.min {
				t.Fatalf("chunkSizes(%v) chunk %d = %d below min: %v", c, i, s, sizes)
			}
		}
		if sum != c.n {
			t.Fatalf("chunkSizes(%v) sums to %d: %v", c, sum, sizes)
		}
	}
}

func BenchmarkBulkLoad1M(b *testing.B) {
	const n = 1 << 20
	ks := make([]keys.Key, n)
	vs := make([]keys.Value, n)
	for i := range ks {
		ks[i] = keys.Key(i)
		vs[i] = keys.Value(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(DefaultOrder, ks, vs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBulkLoadDefaultOrder bulk loads with order 0, which selects
// DefaultOrder: the internal nodes must get the default order's fixed
// separator width too, not one sized by the raw order argument.
func TestBulkLoadDefaultOrder(t *testing.T) {
	ks := make([]keys.Key, 5000)
	vs := make([]keys.Value, len(ks))
	for i := range ks {
		ks[i] = keys.Key(i)
		vs[i] = keys.Value(i)
	}
	tr, err := BulkLoad(0, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Order() != DefaultOrder || tr.Height() < 2 {
		t.Fatalf("order %d height %d", tr.Order(), tr.Height())
	}
	if err := tr.Validate(StrictFill); err != nil {
		t.Fatal(err)
	}
}
