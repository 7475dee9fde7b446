package bsp

import "repro/internal/keys"

// RadixSortQueries stably sorts a query batch by key using a parallel
// least-significant-digit radix sort with 16-bit digits: up to four
// passes of (parallel count → exclusive scan → parallel stable
// scatter). Passes above the batch's maximum key are skipped, so small
// key spaces sort in one or two passes.
//
// Radix sorting is how high-throughput batch systems sort integer keys
// in practice; compared to the comparison-based SortQueries it is
// O(n · passes) instead of O(n log n) and is the default batch sort
// (the ablation benchmarks compare both).
//
// LSD radix with counting passes is inherently stable, preserving the
// original order among equal keys as one-pass QSAT requires.
func (p *Pool) RadixSortQueries(qs []keys.Query) {
	n := len(qs)
	if n < 2048 {
		sortRun(qs)
		return
	}

	var maxKey keys.Key
	for i := range qs {
		if qs[i].Key > maxKey {
			maxKey = qs[i].Key
		}
	}

	const (
		digitBits = 16
		buckets   = 1 << digitBits
		mask      = buckets - 1
	)
	passes := 0
	for m := uint64(maxKey); ; m >>= digitBits {
		passes++
		if m>>digitBits == 0 {
			break
		}
	}

	if cap(p.sortBuf) < n {
		p.sortBuf = make([]keys.Query, n)
	}
	buf := p.sortBuf[:n]
	src, dst := qs, buf

	nw := p.n
	// counts[t] is worker t's per-bucket tally for the current pass;
	// the tally arrays live on the pool so steady-state sorting does not
	// re-allocate them (nw × 64K ints is the largest per-batch
	// allocation in the whole pipeline otherwise).
	if p.radixCnt == nil {
		p.radixCnt = make([][]int, nw)
		for t := range p.radixCnt {
			p.radixCnt[t] = make([]int, buckets)
		}
	}
	counts := p.radixCnt

	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * digitBits)

		p.Run(func(tid int) {
			c := counts[tid]
			for i := range c {
				c[i] = 0
			}
			lo, hi := SplitRange(tid, nw, n)
			for i := lo; i < hi; i++ {
				c[(uint64(src[i].Key)>>shift)&mask]++
			}
		})

		// Global exclusive scan in (bucket, worker) order: for each
		// bucket, workers scatter in tid order, preserving stability.
		total := 0
		for b := 0; b < buckets; b++ {
			for t := 0; t < nw; t++ {
				c := counts[t][b]
				counts[t][b] = total
				total += c
			}
		}

		p.Run(func(tid int) {
			c := counts[tid]
			lo, hi := SplitRange(tid, nw, n)
			for i := lo; i < hi; i++ {
				b := (uint64(src[i].Key) >> shift) & mask
				dst[c[b]] = src[i]
				c[b]++
			}
		})

		src, dst = dst, src
	}

	if &src[0] != &qs[0] {
		copy(qs, src)
	}
}
