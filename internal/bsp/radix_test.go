package bsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func randomQueries(r *rand.Rand, n int, keyBits uint) []keys.Query {
	qs := make([]keys.Query, n)
	maskK := uint64(1)<<keyBits - 1
	for i := range qs {
		qs[i] = keys.Query{Key: keys.Key(r.Uint64() & maskK), Value: keys.Value(r.Uint64())}
	}
	return keys.Number(qs)
}

func assertSortedPermutation(t *testing.T, got, orig []keys.Query) {
	t.Helper()
	if !keys.IsSortedByKey(got) {
		t.Fatal("not stably key-sorted")
	}
	seen := make(map[int32]keys.Query, len(orig))
	for _, q := range got {
		if _, dup := seen[q.Idx]; dup {
			t.Fatalf("duplicate Idx %d", q.Idx)
		}
		seen[q.Idx] = q
	}
	for _, q := range orig {
		if g, ok := seen[q.Idx]; !ok || g != q {
			t.Fatalf("query %v lost or mutated", q)
		}
	}
}

func TestRadixSortQueriesAcrossKeyWidths(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, bits := range []uint{4, 15, 16, 17, 32, 48, 63} {
		r := rand.New(rand.NewSource(int64(bits)))
		qs := randomQueries(r, 20000, bits)
		orig := append([]keys.Query(nil), qs...)
		p.RadixSortQueries(qs)
		assertSortedPermutation(t, qs, orig)
	}
}

func TestRadixSortQueriesSmallFallsBack(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	qs := keys.Number([]keys.Query{keys.Insert(9, 1), keys.Search(2), keys.Insert(9, 2)})
	p.RadixSortQueries(qs)
	if !keys.IsSortedByKey(qs) {
		t.Fatalf("not sorted: %v", qs)
	}
}

func TestRadixSortQueriesAllEqualKeys(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	qs := make([]keys.Query, 10000)
	for i := range qs {
		qs[i] = keys.Query{Key: 7, Value: keys.Value(i)}
	}
	keys.Number(qs)
	p.RadixSortQueries(qs)
	for i := range qs {
		if qs[i].Idx != int32(i) {
			t.Fatalf("stability broken at %d: Idx %d", i, qs[i].Idx)
		}
	}
}

func TestRadixSortQueriesMatchesMergeSort(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	f := func(seed int64, sizeRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2048 + int(sizeRaw)%20000
		qs := randomQueries(r, n, 20) // narrow keys: many duplicates
		ref := append([]keys.Query(nil), qs...)
		keys.SortByKey(ref)
		p.RadixSortQueries(qs)
		for i := range qs {
			if qs[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRadixSort1M(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	r := rand.New(rand.NewSource(1))
	base := randomQueries(r, 1<<20, 22)
	qs := make([]keys.Query, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(qs, base)
		p.RadixSortQueries(qs)
	}
}

func BenchmarkMergeSortVsRadix(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	base := randomQueries(r, 1<<17, 22)
	qs := make([]keys.Query, len(base))
	b.Run("merge", func(b *testing.B) {
		p := NewPool(1)
		defer p.Close()
		for i := 0; i < b.N; i++ {
			copy(qs, base)
			p.SortQueries(qs)
		}
	})
	b.Run("radix", func(b *testing.B) {
		p := NewPool(1)
		defer p.Close()
		for i := 0; i < b.N; i++ {
			copy(qs, base)
			p.RadixSortQueries(qs)
		}
	})
}
