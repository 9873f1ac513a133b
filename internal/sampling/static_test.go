package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"knightking/internal/rng"
)

// empirical draws n samples and returns normalized frequencies.
func empirical(t *testing.T, s StaticSampler, r *rng.Rand, draws int) []float64 {
	t.Helper()
	counts := make([]float64, s.N())
	for i := 0; i < draws; i++ {
		idx := s.Sample(r)
		if idx < 0 || idx >= s.N() {
			t.Fatalf("sample index %d out of range [0,%d)", idx, s.N())
		}
		counts[idx]++
	}
	for i := range counts {
		counts[i] /= float64(draws)
	}
	return counts
}

// assertMatchesWeights checks empirical frequencies against normalized
// weights with a tolerance suited to the draw count.
func assertMatchesWeights(t *testing.T, s StaticSampler, freqs []float64, tol float64) {
	t.Helper()
	total := s.Total()
	for i, f := range freqs {
		want := s.WeightAt(i) / total
		if math.Abs(f-want) > tol {
			t.Fatalf("item %d: frequency %v, want %v (±%v)", i, f, want, tol)
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	u := NewUniform(7)
	freqs := empirical(t, u, rng.New(1), 70000)
	assertMatchesWeights(t, u, freqs, 0.01)
}

func TestUniformPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniform(0) did not panic")
		}
	}()
	NewUniform(0)
}

func TestAliasDistribution(t *testing.T) {
	weights := []float32{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != 10 {
		t.Fatalf("Total = %v", a.Total())
	}
	freqs := empirical(t, a, rng.New(2), 200000)
	assertMatchesWeights(t, a, freqs, 0.01)
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a, err := NewAlias([]float32{0, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 100000; i++ {
		idx := a.Sample(r)
		if idx == 0 || idx == 2 {
			t.Fatalf("zero-weight item %d sampled", idx)
		}
	}
}

func TestAliasSingleItem(t *testing.T) {
	a, err := NewAlias([]float32{5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-item alias sampled nonzero index")
		}
	}
}

func TestAliasExtremeSkew(t *testing.T) {
	weights := make([]float32, 1000)
	for i := range weights {
		weights[i] = 0.001
	}
	weights[500] = 1000
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if a.Sample(r) == 500 {
			hot++
		}
	}
	want := 1000.0 / (1000.0 + 0.999)
	got := float64(hot) / draws
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("hot item frequency %v, want %v", got, want)
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAlias([]float32{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAlias([]float32{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestITSDistribution(t *testing.T) {
	weights := []float32{4, 0, 1, 5}
	s, err := NewITS(weights)
	if err != nil {
		t.Fatal(err)
	}
	freqs := empirical(t, s, rng.New(6), 200000)
	assertMatchesWeights(t, s, freqs, 0.01)
	if freqs[1] != 0 {
		t.Fatal("zero-weight item sampled by ITS")
	}
}

func TestITSFromFloat64(t *testing.T) {
	s, err := NewITSFromFloat64([]float64{2, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != 10 || s.N() != 3 || s.WeightAt(2) != 6 {
		t.Fatalf("accessors wrong: total=%v n=%d w2=%v", s.Total(), s.N(), s.WeightAt(2))
	}
	freqs := empirical(t, s, rng.New(7), 100000)
	assertMatchesWeights(t, s, freqs, 0.01)
}

func TestITSErrors(t *testing.T) {
	if _, err := NewITS(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewITSFromFloat64([]float64{0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewITSFromFloat64([]float64{-2}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestAliasAndITSAgreeQuick(t *testing.T) {
	// Property: alias and ITS over the same weights produce statistically
	// matching distributions. Checked via mean absolute deviation on
	// random weight vectors.
	r := rng.New(8)
	f := func(seed uint64) bool {
		wr := rng.New(seed)
		n := 2 + wr.Intn(20)
		weights := make([]float32, n)
		for i := range weights {
			weights[i] = float32(wr.Range(0, 4))
		}
		weights[wr.Intn(n)] = 1 // ensure positive total
		alias, err := NewAlias(weights)
		if err != nil {
			return false
		}
		its, err := NewITS(weights)
		if err != nil {
			return false
		}
		const draws = 20000
		ca := make([]float64, n)
		ci := make([]float64, n)
		for i := 0; i < draws; i++ {
			ca[alias.Sample(r)]++
			ci[its.Sample(r)]++
		}
		for i := 0; i < n; i++ {
			if math.Abs(ca[i]-ci[i])/draws > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	weights := make([]float32, 1024)
	for i := range weights {
		weights[i] = float32(i%7) + 1
	}
	a, _ := NewAlias(weights)
	r := rng.New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(r)
	}
	_ = sink
}

func BenchmarkITSSample(b *testing.B) {
	weights := make([]float32, 1024)
	for i := range weights {
		weights[i] = float32(i%7) + 1
	}
	s, _ := NewITS(weights)
	r := rng.New(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Sample(r)
	}
	_ = sink
}

func TestInvalidWeightValuesRejected(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{{1, nan}, {inf, 1}, {nan}} {
		if _, err := NewAlias(bad); err == nil {
			t.Fatalf("alias accepted %v", bad)
		}
		if _, err := NewITS(bad); err == nil {
			t.Fatalf("ITS accepted %v", bad)
		}
	}
	if _, err := NewITSFromFloat64([]float64{math.NaN()}); err == nil {
		t.Fatal("ITSFromFloat64 accepted NaN")
	}
}

// TestSharedUniform: the cache must hand out one instance per n, sampling
// exactly like NewUniform (same stream consumption, same values).
func TestSharedUniform(t *testing.T) {
	if SharedUniform(5) != SharedUniform(5) {
		t.Fatal("SharedUniform(5) returned distinct instances")
	}
	if SharedUniform(5) == SharedUniform(6) {
		t.Fatal("distinct n shared an instance")
	}
	a, b := rng.NewStream(1, 2), rng.NewStream(1, 2)
	shared, fresh := SharedUniform(7), NewUniform(7)
	for i := 0; i < 1000; i++ {
		if x, y := shared.Sample(a), fresh.Sample(b); x != y {
			t.Fatalf("draw %d: shared %d, fresh %d", i, x, y)
		}
	}
	if shared.N() != 7 || shared.Total() != 7 || shared.WeightAt(3) != 1 {
		t.Fatal("shared uniform accessors wrong")
	}
}

// TestITSResetFloat64 pins the in-place rebuild against fresh construction:
// identical sampling sequence, reused backing.
func TestITSResetFloat64(t *testing.T) {
	var s ITS
	if err := s.ResetFloat64([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Rebuild with different weights in place.
	weights := []float64{4, 1, 0.5, 2}
	if err := s.ResetFloat64(weights); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewITSFromFloat64(weights)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rng.NewStream(3, 4), rng.NewStream(3, 4)
	for i := 0; i < 2000; i++ {
		if x, y := s.Sample(a), fresh.Sample(b); x != y {
			t.Fatalf("draw %d: reset %d, fresh %d", i, x, y)
		}
	}
	if s.N() != 4 || s.Total() != fresh.Total() {
		t.Fatalf("reset ITS accessors: N=%d Total=%v", s.N(), s.Total())
	}
	// Zero-alloc steady state: rebuilding with same-length weights reuses
	// the cdf backing.
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.ResetFloat64(weights); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ResetFloat64 allocates %.1f per rebuild, want 0", allocs)
	}
}
