package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// best is the best sample: the smallest time, the largest rate. It is what
// a run reports for a time or a rate it sampled many times. The neighbours
// of a shared host only ever take time away, for seconds or minutes at a
// stretch, so the best of many short repetitions says what the program
// costs when the machine is its own. On deepwalk_inproc it moved from run
// to run by 6-8 % in calm weather and 15-17 % in rough, where the good
// quartile of the same repetitions moved by 3 % and 24-27 %, past the
// widest bound a metric may have (README, "Calibration").
func best(xs []float64, better string) float64 {
	if better == "higher" {
		return quantile(xs, 1)
	}
	return quantile(xs, 0)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), because
// that is the rule the spread of a metric is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// tailPercentile returns the highest of the usual tail percentiles
// (50, 90, 99, 99.9) that still has at least ten samples beyond it, and
// its value. With fewer than 20 samples only the median qualifies.
func tailPercentile(xs []float64) (pct float64, value float64) {
	pct = 50
	for _, perMille := range []int{900, 990, 999} {
		if len(xs)*(1000-perMille) >= 10*1000 {
			pct = float64(perMille) / 10
		}
	}
	return pct, quantile(xs, pct/100)
}
