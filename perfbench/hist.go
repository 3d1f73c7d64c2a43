package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: values below
// 2·subCount land in exact unit buckets, and every power of two above
// that is split into subCount equal buckets, so a bucket is at most
// 1/subCount of its value wide. It is a fixed-size value type: Record
// is an index and an increment, with no allocation, so the recorder does
// not feed the garbage collector of the program it measures.
const (
	subBits  = 6
	subCount = 1 << subBits
	maxShift = 30 // values from 2^(subBits+1+maxShift) ns (~2.3 h) up share the last bucket
	nBuckets = 2*subCount + maxShift*subCount
)

type hist struct {
	n      uint64
	counts [nBuckets]uint64
}

func bucketOf(v int64) int {
	if v < 2*subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	if shift > maxShift {
		return nBuckets - 1
	}
	return subCount + shift*subCount + int(uint64(v)>>shift) - subCount
}

// bucketRange returns bucket i's value range [lo, lo+width).
func bucketRange(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	shift := (i - subCount) / subCount
	m := uint64(i - subCount*shift) // in [subCount, 2·subCount)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in ns, interpolated linearly inside
// its bucket so the estimate moves continuously with the data. It is 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := bucketRange(nBuckets - 1)
	return lo + w
}
