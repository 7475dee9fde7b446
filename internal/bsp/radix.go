package bsp

import (
	"math/bits"

	"repro/internal/keys"
)

const (
	// digitBits caps a radix digit: 2^11 uint32 tallies are 8 KiB, so
	// a pass's tally and the next pass's stay L1-resident together.
	digitBits    = 11
	radixBuckets = 1 << digitBits

	// insertionMax is the largest batch sorted by insertion sort.
	insertionMax = 32

	// partitionMin is the smallest batch that is first partitioned on
	// its top digit; below it one LSD sort over the whole batch is
	// fastest. workerShare is the batch share that earns a worker in
	// the partitioned sort. Both are read off BenchmarkSortQueries
	// (EXPERIMENTS.md).
	partitionMin = 1 << 17
	workerShare  = 1 << 16
)

// radixTally is one worker's pair of digit tallies (the current pass
// and the next), padded so two workers' tallies share no cache line.
type radixTally struct {
	cnt [2][radixBuckets]uint32
	_   [64]byte
}

// radixJob is the state of one partitioned sort, shared by its
// supersteps. The superstep closures are built once, in NewPool, and
// read it from here, so a sort allocates nothing.
type radixJob struct {
	qs, buf []keys.Query
	nw      int
	base    keys.Key
	shift   uint
	// mins and maxs are each worker's key range over its chunk.
	mins, maxs []keys.Key
	// starts[b] is where top-digit bucket b begins in buf; groups[t]
	// is the first bucket of worker t's contiguous bucket range.
	starts [radixBuckets + 1]uint32
	groups []int

	rangeStep, countStep, scatterStep, bucketStep func(tid int)
}

// RadixSortQueries stably sorts a query batch by key with a radix sort
// sized to the batch. Digits are taken over the span key − min, not the
// raw key, in ⌈bits.Len64(max − min) / 11⌉ passes of equal-width
// digits, so a batch of 1 024 or more queries whose keys span less than
// 4 Mi sorts in two passes of 11 bits whatever its offset (shorter runs
// take narrower digits; see lsd). Batches of up to 32 queries take an
// insertion sort.
//
// Below partitionMin queries the sort is one serial least-significant-
// digit (LSD) sort on the caller: two workers scattering into one
// buffer of that size would write into the same cache lines, and cost
// more than they save. Larger batches are first partitioned on their
// top digit (one counting pass and one stable scatter, in parallel over
// contiguous chunks); then every top-digit bucket, a cache-sized piece,
// is LSD-sorted on the bits below that digit. The buckets are dealt out
// to the workers as contiguous, count-balanced ranges, so each worker
// sorts disjoint keys with its own tallies. One worker joins per
// workerShare queries, up to the pool's size.
//
// Counting sorts are stable, so the original order among equal keys is
// kept, as one-pass QSAT requires.
func (p *Pool) RadixSortQueries(qs []keys.Query) {
	n := len(qs)
	if n <= insertionMax {
		insertionSort(qs)
		return
	}
	if n < partitionMin {
		lo, hi := keyRange(qs)
		if lo == hi {
			return
		}
		if out := p.tally[0].lsd(qs, p.scratch(n), lo, bits.Len64(uint64(hi-lo))); &out[0] != &qs[0] {
			copy(qs, out)
		}
		return
	}
	p.partitionSort(qs, min(p.n, n/workerShare))
}

// partitionSort sorts qs with nw workers: per-chunk key ranges, a
// top-digit count and stable scatter into the scratch buffer, then an
// LSD sort of each bucket back into qs.
func (p *Pool) partitionSort(qs []keys.Query, nw int) {
	j := &p.job
	j.qs, j.buf, j.nw = qs, p.scratch(len(qs)), nw
	defer func() { j.qs = nil }()

	p.runOn(nw, j.rangeStep)
	lo, hi := j.mins[0], j.maxs[0]
	for t := 1; t < nw; t++ {
		lo, hi = min(lo, j.mins[t]), max(hi, j.maxs[t])
	}
	if lo == hi {
		return
	}
	nbits := bits.Len64(uint64(hi - lo))
	j.base, j.shift = lo, uint(max(0, nbits-digitBits))

	p.runOn(nw, j.countStep)
	// Exclusive scan in (bucket, worker) order: within a bucket the
	// workers' chunks land in chunk order, which keeps the scatter
	// stable.
	buckets := 1 << (nbits - int(j.shift))
	var total uint32
	for b := 0; b < buckets; b++ {
		j.starts[b] = total
		for t := 0; t < nw; t++ {
			c := &p.tally[t].cnt[0][b]
			*c, total = total, total+*c
		}
	}
	j.starts[buckets] = total
	// Deal the buckets out as contiguous ranges of near-equal count.
	j.groups[0], j.groups[nw] = 0, buckets
	b := 0
	for t := 1; t < nw; t++ {
		want := uint32(t * len(qs) / nw)
		for b < buckets && j.starts[b] < want {
			b++
		}
		j.groups[t] = b
	}

	p.runOn(nw, j.scatterStep)
	p.runOn(nw, j.bucketStep)
}

// runOn runs step on nw workers: on the caller when nw is 1, otherwise
// as one superstep whose workers beyond nw sit it out.
func (p *Pool) runOn(nw int, step func(tid int)) {
	if nw == 1 {
		step(0)
		return
	}
	p.Run(step)
}

// initRadix allocates the workers' tallies and builds the partitioned
// sort's superstep closures. Each closure works on worker tid's share
// and returns at once when tid ≥ nw.
func (p *Pool) initRadix() {
	p.tally = make([]radixTally, p.n)
	j := &p.job
	j.mins, j.maxs = make([]keys.Key, p.n), make([]keys.Key, p.n)
	j.groups = make([]int, p.n+1)
	j.rangeStep = func(tid int) {
		if tid >= j.nw {
			return
		}
		lo, hi := SplitRange(tid, j.nw, len(j.qs))
		j.mins[tid], j.maxs[tid] = keyRange(j.qs[lo:hi])
	}
	j.countStep = func(tid int) {
		if tid >= j.nw {
			return
		}
		c := &p.tally[tid].cnt[0]
		clear(c[:])
		lo, hi := SplitRange(tid, j.nw, len(j.qs))
		for i := lo; i < hi; i++ {
			c[(uint64(j.qs[i].Key-j.base)>>j.shift)&(radixBuckets-1)]++
		}
	}
	j.scatterStep = func(tid int) {
		if tid >= j.nw {
			return
		}
		c := &p.tally[tid].cnt[0]
		lo, hi := SplitRange(tid, j.nw, len(j.qs))
		qs, buf := j.qs, j.buf
		for i := lo; i < hi; i++ {
			b := (uint64(qs[i].Key-j.base) >> j.shift) & (radixBuckets - 1)
			buf[c[b]] = qs[i]
			c[b]++
		}
	}
	j.bucketStep = func(tid int) {
		if tid >= j.nw {
			return
		}
		tl := &p.tally[tid]
		for b := j.groups[tid]; b < j.groups[tid+1]; b++ {
			lo, hi := j.starts[b], j.starts[b+1]
			src, dst := j.buf[lo:hi], j.qs[lo:hi]
			if len(src) <= insertionMax {
				copy(dst, src)
				insertionSort(dst)
				continue
			}
			if j.shift == 0 {
				copy(dst, src)
				continue
			}
			if out := tl.lsd(src, dst, j.base+keys.Key(b)<<j.shift, int(j.shift)); &out[0] != &dst[0] {
				copy(dst, out)
			}
		}
	}
}

// lsd stably sorts the non-empty src by the low nbits bits of
// key − base, in passes of equal-width digits of at most 11 bits and
// at most bits.Len(len(src)) bits (but 4 at least), so a short run
// never clears and scans a tally much longer than itself. Queries move
// back and forth between src and tmp (len(tmp) == len(src)); lsd
// returns whichever of the two holds the result. Each pass's scatter
// also tallies the next pass's digit, so only the first pass reads the
// input just to count, and a pass whose digit is one value for the
// whole input is skipped.
func (t *radixTally) lsd(src, tmp []keys.Query, base keys.Key, nbits int) []keys.Query {
	wmax := min(digitBits, max(4, bits.Len(uint(len(src)))))
	passes := (nbits + wmax - 1) / wmax
	w := uint((nbits + passes - 1) / passes)
	mask := uint64(1)<<w - 1
	cur, next := &t.cnt[0], &t.cnt[1]
	clear(cur[:1<<w])
	for i := range src {
		cur[uint64(src[i].Key-base)&mask&(radixBuckets-1)]++
	}
	n := uint32(len(src))
	for pass := uint(0); pass < uint(passes); pass++ {
		shift := pass * w
		last := pass == uint(passes)-1
		if !last {
			clear(next[:1<<w])
		}
		if cur[(uint64(src[0].Key-base)>>shift)&mask&(radixBuckets-1)] == n {
			// One digit value for every query: nothing moves.
			if !last {
				for i := range src {
					next[(uint64(src[i].Key-base)>>(shift+w))&mask&(radixBuckets-1)]++
				}
			}
			cur, next = next, cur
			continue
		}
		var sum uint32
		for b := range cur[:1<<w] {
			cur[b], sum = sum, sum+cur[b]
		}
		dst := tmp
		if last {
			for i := range src {
				b := (uint64(src[i].Key-base) >> shift) & mask & (radixBuckets - 1)
				dst[cur[b]] = src[i]
				cur[b]++
			}
		} else {
			for i := range src {
				k := uint64(src[i].Key - base)
				b := (k >> shift) & mask & (radixBuckets - 1)
				dst[cur[b]] = src[i]
				cur[b]++
				next[(k>>(shift+w))&mask&(radixBuckets-1)]++
			}
		}
		src, tmp = dst, src
		cur, next = next, cur
	}
	return src
}

// scratch returns the pool's n-query sort buffer.
func (p *Pool) scratch(n int) []keys.Query {
	if cap(p.sortBuf) < n {
		p.sortBuf = make([]keys.Query, n)
	}
	return p.sortBuf[:n]
}

// keyRange returns the least and greatest key of the non-empty qs.
func keyRange(qs []keys.Query) (lo, hi keys.Key) {
	lo, hi = qs[0].Key, qs[0].Key
	for i := range qs {
		lo, hi = min(lo, qs[i].Key), max(hi, qs[i].Key)
	}
	return lo, hi
}

// insertionSort stably sorts a short run by key, without allocating.
func insertionSort(qs []keys.Query) {
	for i := 1; i < len(qs); i++ {
		q := qs[i]
		j := i
		for ; j > 0 && qs[j-1].Key > q.Key; j-- {
			qs[j] = qs[j-1]
		}
		qs[j] = q
	}
}
