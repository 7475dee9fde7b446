package bsp

import (
	"fmt"
	"math"
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
		n := int(sizeRaw) % 22048
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
	// Every size up to past the insertion-sort cut-off.
	r := rand.New(rand.NewSource(3))
	for n := 0; n <= 4*insertionMax; n++ {
		checkRadixSort(t, p, randomQueries(r, n, 6))
	}
}

// checkRadixSort sorts a copy of qs with p and compares it with the
// reference stable sort, query for query. Batches of more than one
// query are also sorted by the partitioned sort with every worker of p
// that gets a query, whatever the batch's size.
func checkRadixSort(t *testing.T, p *Pool, qs []keys.Query) {
	t.Helper()
	ref := append([]keys.Query(nil), qs...)
	keys.SortByKey(ref)
	check := func(name string, sort func([]keys.Query)) {
		t.Helper()
		got := append([]keys.Query(nil), qs...)
		sort(got)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s n=%d workers=%d: position %d holds %v, want %v", name, len(qs), p.N(), i, got[i], ref[i])
			}
		}
	}
	check("RadixSortQueries", p.RadixSortQueries)
	if len(qs) > 1 {
		check("partitionSort", func(qs []keys.Query) { p.partitionSort(qs, min(p.N(), len(qs))) })
	}
}

// TestRadixSortQueriesPartitioned sorts batches past partitionMin, so
// the top-digit partition and the per-bucket sorts run on the workers.
// The queries are numbered in input order, so a stable sort is one
// ordered by (Key, Idx).
func TestRadixSortQueriesPartitioned(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 2, 3} {
		p := NewPool(workers)
		defer p.Close()
		for _, bits := range []uint{10, 22, 40} {
			orig := randomQueries(r, partitionMin+1, bits)
			qs := append([]keys.Query(nil), orig...)
			p.RadixSortQueries(qs)
			assertSortedPermutation(t, qs, orig)
		}
	}
}

// FuzzRadixSortQueries checks the radix sort, and the partitioned sort
// on its own, against the reference stable sort over batch sizes from
// 0 to 70 000, key widths of 0 to 64 bits, keys packed below
// MaxUint64 (digits are taken over the span, not the raw key), runs of
// equal keys, and pools of 1, 2, 3 and 8 workers.
func FuzzRadixSortQueries(f *testing.F) {
	f.Add(int64(1), uint32(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint32(33), uint8(22), uint8(0), uint8(1))
	f.Add(int64(3), uint32(16384), uint8(21), uint8(1), uint8(1))
	f.Add(int64(4), uint32(70000), uint8(22), uint8(0), uint8(3))
	f.Add(int64(5), uint32(70000), uint8(64), uint8(1), uint8(2))
	f.Add(int64(6), uint32(70000), uint8(0), uint8(2), uint8(1))
	f.Add(int64(7), uint32(5000), uint8(40), uint8(2), uint8(0))
	pools := map[int]*Pool{}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint32, width, shape, workers uint8) {
		n := int(nRaw % 70001)
		width %= 65
		r := rand.New(rand.NewSource(seed))
		qs := make([]keys.Query, n)
		for i := range qs {
			k := r.Uint64()
			if width < 64 {
				k &= 1<<width - 1
			}
			switch shape % 3 {
			case 1: // just below MaxUint64
				k = math.MaxUint64 - k
			case 2: // runs of equal keys
				k &^= 1<<(width/2) - 1
			}
			qs[i] = keys.Query{Key: keys.Key(k), Value: keys.Value(i)}
		}
		keys.Number(qs)
		nw := []int{1, 2, 3, 8}[workers%4]
		p, ok := pools[nw]
		if !ok {
			p = NewPool(nw)
			pools[nw] = p
		}
		checkRadixSort(t, p, qs)
	})
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

// BenchmarkSortQueries is the radix sort's size table: batch sizes from
// the insertion-sort cut-off to 1 Mi, on pools of one and two workers,
// over uniform keys spanning 2 Mi, 4 Mi and 2^40. It reports ns per
// query (the copy that restores the input is included).
func BenchmarkSortQueries(b *testing.B) {
	for _, n := range []int{32, 800, 4096, 16384, 65536, 1 << 20} {
		for _, workers := range []int{1, 2} {
			for _, span := range []uint{21, 22, 40} {
				b.Run(fmt.Sprintf("n=%d/workers=%d/span=2^%d", n, workers, span), func(b *testing.B) {
					p := NewPool(workers)
					defer p.Close()
					base := randomQueries(rand.New(rand.NewSource(1)), n, span)
					qs := make([]keys.Query, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(qs, base)
						p.RadixSortQueries(qs)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
				})
			}
		}
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
