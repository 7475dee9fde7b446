package bsp

import (
	"cmp"
	"slices"

	"repro/internal/keys"
)

// SortQueries stably sorts a query batch by key using the pool: each
// worker sorts its even share, then pairs of sorted runs are merged in
// parallel rounds, breaking key ties by original index. It is the
// reference the radix sort (RadixSortQueries, the only batch sort the
// engine runs) is checked and benchmarked against.
func (p *Pool) SortQueries(qs []keys.Query) {
	n := len(qs)
	if n < 4096 || p.n == 1 {
		// Same comparator as the parallel path: (Key, Idx) with an
		// unstable sort is equivalent to a stable key sort because
		// original indices are unique, and it avoids SliceStable's
		// insertion-merge overhead.
		sortRun(qs)
		return
	}

	// Chunk boundaries: bounds[t] .. bounds[t+1] is worker t's run.
	// The merge rounds collapse bounds in place.
	bounds := make([]int, p.n+1)
	for t := 0; t <= p.n; t++ {
		lo, _ := p.Range(t%p.n, n)
		if t == p.n {
			lo = n
		}
		bounds[t] = lo
	}

	p.Run(func(tid int) {
		lo, hi := p.Range(tid, n)
		sortRun(qs[lo:hi])
	})

	// Merge rounds: runs double in width each round.
	src, dst := qs, p.scratch(n)
	runs := p.n
	for runs > 1 {
		pairs := runs / 2
		p.Run(func(tid int) {
			for pair := tid; pair < pairs; pair += p.n {
				lo := bounds[2*pair]
				mid := bounds[2*pair+1]
				hi := bounds[2*pair+2]
				mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			}
			// Odd run out: copy through.
			if runs%2 == 1 && tid == 0 {
				lo, hi := bounds[runs-1], bounds[runs]
				copy(dst[lo:hi], src[lo:hi])
			}
		})
		// Collapse bounds: each new run starts where pair 2i started;
		// when runs is odd the final i (== runs-1) is the carried-over
		// odd run's start, so no extra entry is needed.
		nb := bounds[:0:cap(bounds)]
		for i := 0; i < runs; i += 2 {
			nb = append(nb, bounds[i])
		}
		nb = append(nb, n)
		bounds = nb
		runs = len(bounds) - 1
		src, dst = dst, src
	}
	if &src[0] != &qs[0] {
		copy(qs, src)
	}
}

// sortRun stably sorts one run by (key, original index). Because Idx is
// unique per batch, sorting by the (Key, Idx) pair with an unstable sort
// yields the same permutation as a stable sort by Key alone, and
// slices.SortFunc needs neither SliceStable's extra work nor a
// reflection swapper.
func sortRun(qs []keys.Query) {
	slices.SortFunc(qs, func(a, b keys.Query) int {
		if a.Key != b.Key {
			return cmp.Compare(a.Key, b.Key)
		}
		return cmp.Compare(a.Idx, b.Idx)
	})
}

// mergeRuns merges sorted runs a and b into out (len(out) == len(a)+len(b)),
// breaking key ties by original index so stability is preserved.
func mergeRuns(out, a, b []keys.Query) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Key < b[j].Key || (a[i].Key == b[j].Key && a[i].Idx <= b[j].Idx) {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
