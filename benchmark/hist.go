package main

import "math/bits"

// hist is a log-linear histogram of non-negative integers (picoseconds or
// nanoseconds): 2^subBits linear sub-buckets per power of two, so any
// quantile is exact below 2^subBits and within 1/2^subBits (0.4 %) above.
// One hist belongs to one driver; merge sums them afterwards.
const subBits = 8

type hist struct {
	counts [(64 - subBits + 1) << subBits]uint32
	n      uint64
	sum    uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits // ≥ 1
	return e<<subBits | int(v>>uint(e-1))&(1<<subBits-1)
}

// bucketLow is the smallest value that lands in bucket b.
func bucketLow(b int) uint64 {
	e := b >> subBits
	sub := uint64(b & (1<<subBits - 1))
	if e == 0 {
		return sub
	}
	return (1<<subBits | sub) << uint(e-1)
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
	h.sum += uint64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the lower edge of the bucket holding the q-th value
// (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += uint64(c)
		if cum > target {
			return float64(bucketLow(b))
		}
	}
	return 0
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
