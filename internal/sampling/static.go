// Package sampling implements the edge-sampling machinery of KnightKing
// (§3–4 of the paper): the two classic static samplers — alias tables and
// inverse transform sampling (ITS) — plus the rejection sampler that makes
// exact dynamic (walker-dependent) sampling O(1) expected time, with the
// paper's outlier-folding and lower-bound pre-acceptance optimizations.
package sampling

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"knightking/internal/rng"
)

// StaticSampler draws an index in [0, N()) with probability proportional to
// its static weight Ps. Implementations are immutable after construction
// and safe for concurrent Sample calls with distinct Rands.
type StaticSampler interface {
	// Sample returns an index distributed proportionally to weights.
	Sample(r *rng.Rand) int
	// N returns the number of items.
	N() int
	// Total returns the sum of weights (ΣPs).
	Total() float64
	// WeightAt returns the weight of item i.
	WeightAt(i int) float64
}

// Uniform samples uniformly over n items (Ps ≡ 1), the static sampler for
// unweighted graphs.
type Uniform struct {
	n int
}

// NewUniform returns a uniform sampler over n items. n must be positive.
func NewUniform(n int) *Uniform {
	if n <= 0 {
		panic(fmt.Sprintf("sampling: NewUniform(%d)", n))
	}
	return &Uniform{n: n}
}

// sharedUniformMax bounds SharedUniform's cache, which lives as long as
// the process: a hub of degree n must not pin n pointers.
const sharedUniformMax = 4096

// uniformCache backs SharedUniform: Uniform is immutable and parameterized
// only by n, so one instance per item count serves every caller.
var uniformCache struct {
	mu sync.Mutex
	by [sharedUniformMax + 1]*Uniform
}

// SharedUniform returns a uniform sampler over n items, equivalent to
// NewUniform(n), served from a process-shared cache for n up to 4096 so
// that building per-vertex sampler tables for an unweighted graph
// allocates nothing per vertex; larger n get a fresh sampler. Safe for
// concurrent use; n must be positive.
func SharedUniform(n int) *Uniform {
	if n <= 0 {
		panic(fmt.Sprintf("sampling: SharedUniform(%d)", n))
	}
	if n > sharedUniformMax {
		return &Uniform{n: n}
	}
	uniformCache.mu.Lock()
	defer uniformCache.mu.Unlock()
	u := uniformCache.by[n]
	if u == nil {
		u = &Uniform{n: n}
		uniformCache.by[n] = u
	}
	return u
}

// Sample returns a uniform index in [0, n).
//
//kk:hotpath
func (u *Uniform) Sample(r *rng.Rand) int { return r.Intn(u.n) }

// N returns the item count.
func (u *Uniform) N() int { return u.n }

// Total returns n (each item has weight 1).
func (u *Uniform) Total() float64 { return float64(u.n) }

// WeightAt returns 1 for every item.
func (u *Uniform) WeightAt(int) float64 { return 1 }

// AliasEntry is one bucket of an alias row, and one per out-edge: the
// bucket's acceptance threshold, its fallback item, and the destination
// of the edge the bucket is primary for. Dst fills the padding a
// {float64, int32} bucket costs anyway, so a draw reads one 16-byte entry
// (two on the alias branch, both in the same row) and never the CSR.
type AliasEntry struct {
	Prob  float64
	Alias int32
	Dst   uint32
}

// AliasScratch is BuildAliasRow's reusable work space; the zero value is
// ready, and one scratch serves any number of rows built in sequence.
type AliasScratch struct {
	small, large []int32
}

// Grow sizes the scratch for rows of up to n items at once, so a caller
// that knows its largest row never grows it row by row.
func (s *AliasScratch) Grow(n int) {
	s.small = slices.Grow(s.small[:0], n)
	s.large = slices.Grow(s.large[:0], n)
}

// BuildAliasRow fills out with the Walker/Vose alias table over the given
// non-negative weights (at least one positive), setting out[i].Dst =
// dst[i]; dst may be nil, leaving Dst zero. O(n), and allocation-free once
// scratch (non-nil) has grown to the largest row. This is the tree's one
// alias construction: NewAlias wraps it.
func BuildAliasRow(out []AliasEntry, weights []float32, dst []uint32, scratch *AliasScratch) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("sampling: alias table over zero items")
	}
	if len(out) != n || (dst != nil && len(dst) != n) {
		return fmt.Errorf("sampling: alias row of %d entries, %d destinations, for %d weights", len(out), len(dst), n)
	}
	total := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("sampling: invalid weight %v at %d", x, i)
		}
		total += float64(x)
	}
	if !(total > 0) {
		return fmt.Errorf("sampling: weights sum to %v", total)
	}
	// Prob holds each item's scaled weight (mean 1 per bucket) until the
	// item is paired; the pairing then leaves it as the final threshold.
	small, large := scratch.small[:0], scratch.large[:0]
	for i := n - 1; i >= 0; i-- {
		out[i] = AliasEntry{Prob: float64(weights[i]) * float64(n) / total}
		if dst != nil {
			out[i].Dst = dst[i]
		}
		if out[i].Prob < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		out[s].Alias = l
		out[l].Prob -= 1 - out[s].Prob
		if out[l].Prob < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		out[l].Prob, out[l].Alias = 1, l
	}
	for _, s := range small { // numeric residue; should be ~1 already
		out[s].Prob, out[s].Alias = 1, s
	}
	scratch.small, scratch.large = small, large
	return nil
}

// Alias is a Walker/Vose alias table: O(n) construction, O(1) sampling.
// This is KnightKing's default static solution (§3, Figure 1b). Its
// buckets are an alias row, which may live in a caller's slab (see Init).
type Alias struct {
	row     []AliasEntry
	weights []float32
	total   float64
}

// NewAlias builds an alias table over the given non-negative weights. At
// least one weight must be positive.
func NewAlias(weights []float32) (*Alias, error) {
	row := make([]AliasEntry, len(weights))
	if err := BuildAliasRow(row, weights, nil, new(AliasScratch)); err != nil {
		return nil, err
	}
	a := new(Alias)
	a.Init(row, append([]float32(nil), weights...))
	return a, nil
}

// Init lays a over row, an alias row built by BuildAliasRow from weights —
// the arena form of NewAlias, for callers that keep their rows and
// tables in slabs. Both slices are retained, not copied.
func (a *Alias) Init(row []AliasEntry, weights []float32) {
	total := 0.0
	for _, x := range weights {
		total += float64(x)
	}
	*a = Alias{row: row, weights: weights, total: total}
}

// DrawAlias draws an index of row in O(1), in proportion to the weights it
// was built from: a uniform bucket, then its primary item with probability
// Prob, else its alias — one Intn and one Float64 of r on either branch.
// It is AliasBucket, then ResolveAlias on the next Float64; a caller that
// splits the two can fetch the bucket's entry from memory in between.
//
//kk:hotpath
func DrawAlias(row []AliasEntry, r *rng.Rand) int {
	b := AliasBucket(row, r)
	return ResolveAlias(row, b, r.Float64())
}

// AliasBucket is the first half of DrawAlias: the uniform bucket, one Intn
// of r. Nothing of row but its length is read.
//
//kk:hotpath
func AliasBucket(row []AliasEntry, r *rng.Rand) int { return r.Intn(len(row)) }

// ResolveAlias is the second half of DrawAlias: given the coin u, the
// Float64 drawn after bucket b, it returns b's primary item if u < Prob,
// else b's alias.
//
//kk:hotpath
func ResolveAlias(row []AliasEntry, b int, u float64) int {
	if e := &row[b]; u >= e.Prob {
		return int(e.Alias)
	}
	return b
}

// Sample draws an index in O(1) (DrawAlias over the table's row).
//
//kk:hotpath
func (a *Alias) Sample(r *rng.Rand) int { return DrawAlias(a.row, r) }

// N returns the item count.
func (a *Alias) N() int { return len(a.row) }

// Total returns ΣPs.
func (a *Alias) Total() float64 { return a.total }

// WeightAt returns the weight of item i.
func (a *Alias) WeightAt(i int) float64 { return float64(a.weights[i]) }

// ITS is an inverse-transform sampler: a CDF array with binary search,
// O(n) construction, O(log n) sampling (§3, Figure 1a). KnightKing uses
// alias by default; ITS exists for the baseline engine and comparisons.
type ITS struct {
	cdf     []float64 // cdf[i] = sum of weights[0..i]
	weights []float64
}

// NewITS builds a CDF sampler over the given non-negative weights. At
// least one weight must be positive.
func NewITS(weights []float32) (*ITS, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: ITS over zero items")
	}
	cdf := make([]float64, n)
	w := make([]float64, n)
	sum := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return nil, fmt.Errorf("sampling: invalid weight %v at %d", x, i)
		}
		w[i] = float64(x)
		sum += float64(x)
		cdf[i] = sum
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("sampling: weights sum to %v", sum)
	}
	return &ITS{cdf: cdf, weights: w}, nil
}

// NewITSFromFloat64 builds a CDF sampler from float64 weights; used where
// the baseline recomputes dynamic products per step.
func NewITSFromFloat64(weights []float64) (*ITS, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: ITS over zero items")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("sampling: invalid weight %v at %d", x, i)
		}
		sum += x
		cdf[i] = sum
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("sampling: weights sum to %v", sum)
	}
	return &ITS{cdf: cdf, weights: weights}, nil
}

// ResetFloat64 rebuilds s in place over float64 weights, reusing the CDF
// backing array: sampling behavior is identical to a fresh
// NewITSFromFloat64, with no allocation once capacity is warm. The weights
// slice is retained until the next Reset, so callers reusing a scratch
// slice must finish sampling before overwriting it.
//
//kk:hotpath
func (s *ITS) ResetFloat64(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("sampling: ITS over zero items") //kk:alloc-ok error path: invalid input aborts the step, never steady state
	}
	cdf := s.cdf[:0]
	sum := 0.0
	for i, x := range weights {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("sampling: invalid weight %v at %d", x, i) //kk:alloc-ok error path: invalid input aborts the step, never steady state
		}
		sum += x
		cdf = append(cdf, sum)
	}
	if !(sum > 0) {
		return fmt.Errorf("sampling: weights sum to %v", sum) //kk:alloc-ok error path: invalid input aborts the step, never steady state
	}
	s.cdf = cdf
	s.weights = weights
	return nil
}

// Sample draws x in [0, total) and returns the smallest i with cdf[i] > x,
// so item i is selected with probability weights[i]/total and zero-weight
// items are never selected. The binary search is hand-rolled: sort.Search
// would allocate a capturing closure on every draw.
//
//kk:hotpath
func (s *ITS) Sample(r *rng.Rand) int {
	x := r.Float64() * s.cdf[len(s.cdf)-1]
	lo, hi := 0, len(s.cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cdf[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// N returns the item count.
func (s *ITS) N() int { return len(s.cdf) }

// Total returns ΣPs.
func (s *ITS) Total() float64 { return s.cdf[len(s.cdf)-1] }

// WeightAt returns the weight of item i.
func (s *ITS) WeightAt(i int) float64 { return s.weights[i] }
