package obs

import (
	"math"
	"sync"
	"testing"

	"knightking/internal/stats"
)

// bucketOf observes v into a fresh histogram and returns the one bucket
// that counted it.
func bucketOf(v int64) int {
	h := NewHistogram("b", "")
	h.Observe(v)
	s := h.Snapshot()
	for i, b := range s.Buckets {
		if b != 0 {
			return i
		}
	}
	return -1
}

// TestBucketBoundaries pins the power-of-two bucket layout: bucket 0 holds
// non-positive values, bucket i holds values of 64-bit length exactly i.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 40, 41},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("%d landed in bucket %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in a bucket whose bound is >= the value, and
	// whose predecessor's bound is < the value.
	for _, c := range cases {
		i := bucketOf(c.v)
		if b := stats.Pow2Bound(i); c.v > b {
			t.Errorf("value %d exceeds its bucket %d bound %d", c.v, i, b)
		}
		if i > 0 && c.v > 0 {
			if b := stats.Pow2Bound(i - 1); c.v <= b {
				t.Errorf("value %d fits in earlier bucket %d (bound %d)", c.v, i-1, b)
			}
		}
	}
}

func TestBucketBound(t *testing.T) {
	if got := stats.Pow2Bound(0); got != 0 {
		t.Errorf("Pow2Bound(0) = %d, want 0", got)
	}
	if got := stats.Pow2Bound(1); got != 1 {
		t.Errorf("Pow2Bound(1) = %d, want 1", got)
	}
	if got := stats.Pow2Bound(3); got != 7 {
		t.Errorf("Pow2Bound(3) = %d, want 7", got)
	}
	if got := stats.Pow2Bound(63); got != math.MaxInt64 {
		t.Errorf("Pow2Bound(63) = %d, want MaxInt64", got)
	}
	if got := stats.Pow2Bound(stats.Pow2Buckets); got != math.MaxInt64 {
		t.Errorf("Pow2Bound(%d) = %d, want MaxInt64", stats.Pow2Buckets, got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("test", "t")
	for _, v := range []int64{0, 1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Sum != 101 {
		t.Errorf("sum = %d, want 101", s.Sum)
	}
	if s.Max != 100 {
		t.Errorf("max = %d, want 100", s.Max)
	}
	if s.Buckets[0] != 2 { // 0 and -5
		t.Errorf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[2] != 2 { // 2 and 3
		t.Errorf("bucket 2 = %d, want 2", s.Buckets[2])
	}
	if s.Buckets[7] != 1 { // 100
		t.Errorf("bucket 7 = %d, want 1", s.Buckets[7])
	}
	if got := s.HighestNonEmpty(); got != 7 {
		t.Errorf("HighestNonEmpty = %d, want 7", got)
	}
	if mean := s.Mean(); math.Abs(mean-101.0/6) > 1e-12 {
		t.Errorf("mean = %v, want %v", mean, 101.0/6)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty stats.Pow2Counts
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
	h := NewHistogram("q", "q")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	// The true median is 50; the bucket quantile returns its bucket's
	// upper bound, 63.
	if got := s.Quantile(0.5); got != 63 {
		t.Errorf("p50 = %d, want 63", got)
	}
	// The top observation (100) lives in the bucket bounded by 127.
	if got := s.Quantile(1.0); got != 127 {
		t.Errorf("p100 = %d, want 127", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
}

// TestHistogramConcurrent hammers Observe, Add, and Snapshot from many
// goroutines; run under -race, and the final totals must be exact.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	dst := NewHistogram("dst", "d")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := NewHistogram("src", "s")
			for i := 0; i < perG; i++ {
				v := int64(g*perG + i)
				if g%2 == 0 {
					dst.Observe(v)
				} else {
					src.Observe(v)
				}
				if i%1000 == 0 {
					_ = dst.Snapshot() // concurrent reads must be safe
				}
			}
			if g%2 == 1 {
				s := src.Snapshot()
				dst.Add(&s)
			}
		}(g)
	}
	wg.Wait()
	s := dst.Snapshot()
	total := int64(goroutines * perG)
	if s.Count != total {
		t.Errorf("count = %d, want %d", s.Count, total)
	}
	wantSum := total * (total - 1) / 2
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != total-1 {
		t.Errorf("max = %d, want %d", s.Max, total-1)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != total {
		t.Errorf("bucket total = %d, want %d", bucketSum, total)
	}
}

func TestHistogramMergeMax(t *testing.T) {
	a, b := NewHistogram("a", ""), NewHistogram("b", "")
	a.Observe(10)
	b.Observe(500)
	s := b.Snapshot()
	a.Add(&s)
	if s := a.Snapshot(); s.Max != 500 || s.Count != 2 || s.Sum != 510 {
		t.Errorf("merged snapshot = %+v", s)
	}
}
