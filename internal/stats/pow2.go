package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Pow2Buckets is the fixed bucket count of every power-of-two histogram:
// bucket 0 holds non-positive values, bucket i (1 <= i <= 63) holds values
// v with 2^(i-1) <= v < 2^i, i.e. 64-bit length exactly i. Every int64
// maps to exactly one bucket, so there is no separate overflow bucket.
const Pow2Buckets = 64

// pow2Index maps a value to its bucket.
func pow2Index(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Pow2Bound returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 otherwise (math.MaxInt64 for the last bucket).
func Pow2Bound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Pow2Counts is a plain power-of-two histogram: the snapshot of a
// Pow2Histogram, and the single-goroutine accumulator an engine worker
// fills on its hot path and folds into a shared Pow2Histogram once per
// phase (Pow2Histogram.Add). The fixed bucket layout makes any two
// mergeable — there is no per-instance configuration to mismatch.
type Pow2Counts struct {
	Buckets [Pow2Buckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Observe records one value. Not safe for concurrent use.
//
//kk:hotpath
func (c *Pow2Counts) Observe(v int64) { c.ObserveN(v, 1) }

// ObserveN records n observations of v (n > 0). Not safe for concurrent
// use.
//
//kk:hotpath
func (c *Pow2Counts) ObserveN(v, n int64) {
	c.Buckets[pow2Index(v)] += n
	c.Count += n
	c.Sum += v * n
	if v > c.Max {
		c.Max = v
	}
}

// Mean returns the mean observed value (0 when empty).
func (c Pow2Counts) Mean() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.Sum) / float64(c.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (q in [0, 1]); an upper bound on the true quantile,
// tight to a factor of two.
func (c Pow2Counts) Quantile(q float64) int64 {
	if c.Count == 0 {
		return 0
	}
	target := int64(q * float64(c.Count))
	if target >= c.Count {
		target = c.Count - 1
	}
	var cum int64
	for i, b := range c.Buckets {
		cum += b
		if cum > target {
			return Pow2Bound(i)
		}
	}
	return Pow2Bound(Pow2Buckets - 1)
}

// HighestNonEmpty returns the largest bucket index with observations
// (-1 when empty), used to trim rendering.
func (c Pow2Counts) HighestNonEmpty() int {
	for i := Pow2Buckets - 1; i >= 0; i-- {
		if c.Buckets[i] != 0 {
			return i
		}
	}
	return -1
}

// Pow2Histogram is a lock-free power-of-two-bucket histogram; the zero
// value is empty and ready. Observe is a single atomic add on the value's
// bucket (plus count/sum/max updates), so it is safe to call from many
// goroutines — but every caller shares its cache lines, so per-step
// producers accumulate a private Pow2Counts and Add it once per phase.
//
// Like Counters, a snapshot of a live histogram is consistent per field
// but not across fields (see the Counters doc for the contract). Snapshot
// at a barrier — or after the run joins — for exact totals.
type Pow2Histogram struct {
	buckets [Pow2Buckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value.
func (h *Pow2Histogram) Observe(v int64) {
	h.buckets[pow2Index(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// Add folds c into h: a worker's per-phase accumulation, or another
// histogram's snapshot.
//
//kk:hotpath
func (h *Pow2Histogram) Add(c *Pow2Counts) {
	for i, b := range c.Buckets {
		if b != 0 {
			h.buckets[i].Add(b)
		}
	}
	h.count.Add(c.Count)
	h.sum.Add(c.Sum)
	h.raiseMax(c.Max)
}

// raiseMax lifts the running maximum to v.
func (h *Pow2Histogram) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the histogram's current state (per-field consistency
// only while observations are in flight).
func (h *Pow2Histogram) Snapshot() Pow2Counts {
	s := Pow2Counts{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}
