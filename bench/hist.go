package main

import "math/bits"

// subBits sets the histogram's resolution: every power-of-two range of
// values is split into 2^subBits equal buckets, so a bucket is at most
// 1/2^subBits of its lower bound wide and the midpoint a percentile reports
// is within 1/2^(subBits+1) (0.4%) of any value in the bucket.
const subBits = 7

const (
	subCount = 1 << subBits
	// histBuckets covers every non-negative int64: values below subCount
	// get one exact bucket each, and each of the 63-subBits higher powers
	// of two gets subCount buckets.
	histBuckets = (64 - subBits) * subCount
)

// Histogram is a fixed-bucket log-linear latency histogram over
// non-negative integer values (nanoseconds here). Record never allocates,
// so a closed-loop client can keep one per run without the sample storage
// that would inflate the process RSS the benchmark reports. It is not safe
// for concurrent use: each client owns one and Merge combines them after
// the run.
type Histogram struct {
	counts   [histBuckets]uint64
	n        uint64
	min, max int64
}

func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := uint(i/subCount - 1)
	lo := int64(i%subCount+subCount) << shift
	return lo + (int64(1)<<shift)/2
}

// Record adds one value; negative values count as 0.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.n++
}

// Merge adds o's samples to h.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the value of
// rank ceil(q·n) in sorted order, resolved to its bucket's midpoint and
// clamped to the observed range. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
