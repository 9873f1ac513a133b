// Package obs is the engine's telemetry layer: lock-free power-of-two
// histograms for hot-path observations, per-superstep span records with
// JSONL export, a Prometheus-text + /statusz + pprof admin server, and the
// glue that fills the end-of-run stats.Report. The Registry type implements
// core.Observer and derives every histogram it can from the superstep
// spans, so one value wires the whole engine.
//
// Telemetry is strictly passive: observations never touch walker RNG
// streams, so enabling it cannot change walk output (pinned by
// TestTelemetryDoesNotChangeWalkOutput).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets is the fixed bucket count of every histogram: bucket 0 holds
// non-positive values, bucket i (1 <= i <= 63) holds values v with
// 2^(i-1) <= v < 2^i, i.e. 64-bit length exactly i. Every int64 maps to
// exactly one bucket, so there is no separate overflow bucket.
const numBuckets = 64

// Histogram is a lock-free power-of-two-bucket histogram. Observe is a
// single atomic add on the value's bucket (plus count/sum/max updates), so
// it is safe and cheap to call from every engine worker concurrently. The
// fixed bucket layout means histograms from different ranks can always be
// merged — there is no per-instance configuration to mismatch.
//
// Like stats.Counters, a snapshot of a live histogram is consistent per
// field but not across fields (see the Counters doc for the contract).
// Merge at a barrier — or after the run joins — for exact totals.
type Histogram struct {
	name, help string
	buckets    [numBuckets]atomic.Int64
	count      atomic.Int64
	sum        atomic.Int64
	max        atomic.Int64
}

// NewHistogram creates a named histogram. The name becomes the Prometheus
// metric family (prefixed "kk_"), so use snake_case with a unit suffix.
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// Name returns the histogram's metric name.
func (h *Histogram) Name() string { return h.name }

// Help returns the histogram's help text.
func (h *Histogram) Help() string { return h.help }

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 otherwise (math.MaxInt64 for the last bucket).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Merge folds a snapshot of src into h. The fixed bucket layout makes any
// two histograms mergeable; ranks that keep private histograms fold them
// into the shared one at a barrier (or after joining) with this.
func (h *Histogram) Merge(src *Histogram) {
	s := src.Snapshot()
	for i, b := range s.Buckets {
		if b != 0 {
			h.buckets[i].Add(b)
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		cur := h.max.Load()
		if s.Max <= cur || h.max.CompareAndSwap(cur, s.Max) {
			break
		}
	}
}

// Snapshot copies the histogram's current state (per-field consistency
// only while observations are in flight).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  h.name,
		Help:  h.help,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a plain copy of a histogram's state.
type HistogramSnapshot struct {
	Name    string
	Help    string
	Buckets [numBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (q in [0, 1]); an upper bound on the true quantile,
// tight to a factor of two.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum > target {
			return BucketBound(i)
		}
	}
	return BucketBound(numBuckets - 1)
}

// HighestNonEmpty returns the largest bucket index with observations
// (-1 when empty), used to trim rendering.
func (s HistogramSnapshot) HighestNonEmpty() int {
	for i := numBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return i
		}
	}
	return -1
}
