package sampling

import (
	"math"
	"testing"

	"knightking/internal/rng"
)

// node2vec-like Pd values for a 4-edge vertex where edge 3 is the return
// edge: Pd = {1, 2, 2, 1/p}.
func node2vecPd(invP float64) []float64 {
	return []float64{1, 2, 2, invP}
}

// runExact samples `draws` times with SampleExact and returns frequencies
// and average trials.
func runExact(t *testing.T, rj *Rejection, pd []float64, returnEdge int, draws int, seed uint64) ([]float64, float64) {
	t.Helper()
	r := rng.New(seed)
	counts := make([]float64, len(pd))
	totalTrials := 0
	locate := func(tag int) int { return returnEdge }
	for i := 0; i < draws; i++ {
		idx, trials := rj.SampleExact(r, func(i int) float64 { return pd[i] }, locate)
		counts[idx]++
		totalTrials += trials
	}
	for i := range counts {
		counts[i] /= float64(draws)
	}
	return counts, float64(totalTrials) / float64(draws)
}

// assertDistribution checks frequencies against the exact target
// distribution proportional to ps[i]*pd[i].
func assertDistribution(t *testing.T, freqs []float64, ps, pd []float64, tol float64) {
	t.Helper()
	total := 0.0
	for i := range ps {
		total += ps[i] * pd[i]
	}
	for i, f := range freqs {
		want := ps[i] * pd[i] / total
		if math.Abs(f-want) > tol {
			t.Fatalf("edge %d: frequency %v, want %v (±%v)", i, f, want, tol)
		}
	}
}

func TestRejectionUnbiasedBasic(t *testing.T) {
	// p=2, q=0.5 → Pd ∈ {0.5, 1, 2}, Q=2, no outlier needed.
	pd := node2vecPd(0.5)
	rj := NewRejection(NewUniform(4), 2, 0, nil)
	freqs, _ := runExact(t, rj, pd, 3, 200000, 1)
	assertDistribution(t, freqs, []float64{1, 1, 1, 1}, pd, 0.01)
}

func TestRejectionExpectedTrials(t *testing.T) {
	pd := node2vecPd(0.5)
	rj := NewRejection(NewUniform(4), 2, 0, nil)
	want := rj.ExpectedTrials(func(i int) float64 { return pd[i] })
	// E = Q*ΣPs / Σ(Ps*Pd) = 2*4 / 5.5 ≈ 1.4545
	if math.Abs(want-8.0/5.5) > 1e-12 {
		t.Fatalf("analytic E = %v, want %v", want, 8.0/5.5)
	}
	_, avg := runExact(t, rj, pd, 3, 100000, 2)
	if math.Abs(avg-want) > 0.05 {
		t.Fatalf("empirical trials %v, analytic %v", avg, want)
	}
}

func TestRejectionLowerBoundPreAccepts(t *testing.T) {
	// All Pd >= 0.5, so L = 0.5 pre-accepts darts below it; distribution
	// must be unchanged.
	pd := node2vecPd(0.5)
	rjNaive := NewRejection(NewUniform(4), 2, 0, nil)
	rjLower := NewRejection(NewUniform(4), 2, 0.5, nil)
	fNaive, _ := runExact(t, rjNaive, pd, 3, 200000, 3)
	fLower, _ := runExact(t, rjLower, pd, 3, 200000, 4)
	for i := range fNaive {
		if math.Abs(fNaive[i]-fLower[i]) > 0.01 {
			t.Fatalf("lower bound changed distribution at %d: %v vs %v", i, fNaive[i], fLower[i])
		}
	}
	// Count how often Pd evaluation was needed: simulate via Propose.
	r := rng.New(5)
	evals, draws := 0, 100000
	for i := 0; i < draws; i++ {
		p := rjLower.Propose(r)
		if p.Appendix < 0 && !p.PreAccepted {
			evals++
		}
	}
	// Pre-acceptance rate should be L/Q = 25% of main-region darts.
	rate := float64(draws-evals) / float64(draws)
	if rate < 0.2 {
		t.Fatalf("pre-acceptance rate %v too low", rate)
	}
}

func TestRejectionUniformPdNeverEvaluates(t *testing.T) {
	// p = q = 1: Pd ≡ 1, L = Q = 1 → every main dart pre-accepted. This is
	// the paper's Table 5a third column: 0 edges/step with lower bound.
	rj := NewRejection(NewUniform(5), 1, 1, nil)
	r := rng.New(6)
	for i := 0; i < 10000; i++ {
		p := rj.Propose(r)
		if !p.PreAccepted {
			t.Fatal("dart below L=Q=1 not pre-accepted")
		}
	}
}

func TestRejectionOutlierExactness(t *testing.T) {
	// p=0.5, q=2 → return edge Pd = 2, others 0.5 or 1. Without outlier
	// folding Q must be 2; with folding Q = 1 and the return edge gets an
	// appendix of height 1.
	pd := []float64{0.5, 1, 0.5, 2} // edge 3 = return edge
	naive := NewRejection(NewUniform(4), 2, 0, nil)
	folded := NewRejection(NewUniform(4), 1, 0, []Appendix{{Tag: 0, WidthUB: 1, HeightUB: 1}})

	fNaive, trialsNaive := runExact(t, naive, pd, 3, 300000, 7)
	fFolded, trialsFolded := runExact(t, folded, pd, 3, 300000, 8)

	ps := []float64{1, 1, 1, 1}
	assertDistribution(t, fNaive, ps, pd, 0.01)
	assertDistribution(t, fFolded, ps, pd, 0.01)

	// Folding must reduce the expected trials: naive area 8 vs folded 5.
	if trialsFolded >= trialsNaive {
		t.Fatalf("outlier folding did not help: %v vs %v trials", trialsFolded, trialsNaive)
	}
}

func TestRejectionOutlierLooseBoundsStillExact(t *testing.T) {
	// Declared appendix is a loose upper bound (width 2, height 3) while
	// the actual chopped area is 1x1; sampling must remain exact.
	pd := []float64{0.5, 1, 0.5, 2}
	folded := NewRejection(NewUniform(4), 1, 0, []Appendix{{Tag: 0, WidthUB: 2, HeightUB: 3}})
	freqs, _ := runExact(t, folded, pd, 3, 300000, 9)
	assertDistribution(t, freqs, []float64{1, 1, 1, 1}, pd, 0.01)
}

func TestRejectionOutlierMissingEdge(t *testing.T) {
	// The outlier case may not exist at this vertex (e.g. first step has no
	// return edge): locate returns -1 and the dart is simply rejected.
	// Distribution over the other edges must still follow Ps*Pd.
	pd := []float64{0.5, 1, 0.75}
	rj := NewRejection(NewUniform(3), 1, 0, []Appendix{{Tag: 0, WidthUB: 1, HeightUB: 1}})
	r := rng.New(10)
	counts := make([]float64, 3)
	const draws = 200000
	for i := 0; i < draws; i++ {
		idx, _ := rj.SampleExact(r, func(i int) float64 { return pd[i] }, func(int) int { return -1 })
		counts[idx]++
	}
	for i := range counts {
		counts[i] /= draws
	}
	assertDistribution(t, counts, []float64{1, 1, 1}, pd, 0.01)
}

func TestRejectionBiased(t *testing.T) {
	// Weighted static component via alias; joint distribution must follow
	// Ps*Pd.
	ps := []float32{1, 3, 2, 4}
	pd := []float64{2, 0.5, 1, 1.5}
	alias, err := NewAlias(ps)
	if err != nil {
		t.Fatal(err)
	}
	rj := NewRejection(alias, 2, 0.5, nil)
	freqs, _ := runExact(t, rj, pd, -1, 300000, 11)
	assertDistribution(t, freqs, []float64{1, 3, 2, 4}, pd, 0.01)
}

func TestRejectionTrialsIndependentOfDegree(t *testing.T) {
	// The headline claim: E does not grow with vertex degree.
	pdFor := func(n int) []float64 {
		pd := make([]float64, n)
		for i := range pd {
			pd[i] = 0.5 + float64(i%3)*0.75 // in [0.5, 2]
		}
		return pd
	}
	var small, large float64
	for _, n := range []int{12, 12000} {
		pd := pdFor(n)
		rj := NewRejection(NewUniform(n), 2, 0.5, nil)
		_, avg := runExact(t, rj, pd, -1, 20000, 12)
		if n == 12 {
			small = avg
		} else {
			large = avg
		}
	}
	if math.Abs(small-large) > 0.1 {
		t.Fatalf("trials depend on degree: %v (n=12) vs %v (n=12000)", small, large)
	}
}

func TestRejectionGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewRejection(nil, 1, 0, nil) },
		func() { NewRejection(NewUniform(3), 0, 0, nil) },
		func() { NewRejection(NewUniform(3), 1, -0.1, nil) },
		func() { NewRejection(NewUniform(3), 1, 1.5, nil) },
		func() { NewRejection(NewUniform(3), 1, 0, []Appendix{{WidthUB: -1, HeightUB: 1}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAppendixAcceptProbContractViolations(t *testing.T) {
	rj := NewRejection(NewUniform(2), 1, 0, []Appendix{{Tag: 0, WidthUB: 1, HeightUB: 1}})
	p := Proposal{EdgeIdx: -1, Appendix: 0}
	// Pd below Q: probability 0, no panic.
	if got := rj.AppendixAcceptProb(p, 1, 0.5); got != 0 {
		t.Fatalf("prob = %v, want 0", got)
	}
	// Overshoot beyond declared bound must panic (silent bias otherwise).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overshoot violation did not panic")
			}
		}()
		rj.AppendixAcceptProb(p, 1, 5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("width violation did not panic")
			}
		}()
		rj.AppendixAcceptProb(p, 3, 1.5)
	}()
}

func TestProposeMisuse(t *testing.T) {
	rj := NewRejection(NewUniform(2), 1, 0, []Appendix{{Tag: 0, WidthUB: 1, HeightUB: 1}})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AcceptMain on appendix proposal did not panic")
			}
		}()
		rj.AcceptMain(Proposal{EdgeIdx: -1, Appendix: 0}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AppendixAcceptProb on main proposal did not panic")
			}
		}()
		rj.AppendixAcceptProb(Proposal{EdgeIdx: 0, Appendix: -1}, 1, 1)
	}()
}

func BenchmarkRejectionSampleExact(b *testing.B) {
	const n = 4096
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 0.5 + float64(i%3)*0.75
	}
	rj := NewRejection(NewUniform(n), 2, 0.5, nil)
	r := rng.New(1)
	pdf := func(i int) float64 { return pd[i] }
	locate := func(int) int { return -1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rj.SampleExact(r, pdf, locate)
	}
}

func BenchmarkFullScanSample(b *testing.B) {
	// The traditional O(n) alternative, for comparison in bench output.
	const n = 4096
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 0.5 + float64(i%3)*0.75
	}
	r := rng.New(1)
	weights := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range weights {
			weights[j] = pd[j]
		}
		its, _ := NewITSFromFloat64(weights)
		its.Sample(r)
	}
}

func TestRejectionRejectsNonFiniteGeometry(t *testing.T) {
	cases := []func(){
		func() { NewRejection(NewUniform(3), math.NaN(), 0, nil) },
		func() { NewRejection(NewUniform(3), math.Inf(1), 0, nil) },
		func() { NewRejection(NewUniform(3), 1, math.NaN(), nil) },
		func() { NewRejection(NewUniform(3), 1, 0, []Appendix{{WidthUB: math.NaN(), HeightUB: 1}}) },
		func() { NewRejection(NewUniform(3), 1, 0, []Appendix{{WidthUB: 1, HeightUB: math.Inf(1)}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestRejectionReset pins the in-place dartboard initializer against
// NewRejection: identical proposals from identical streams.
func TestRejectionReset(t *testing.T) {
	static := NewUniform(6)
	apps := []Appendix{{WidthUB: 1, HeightUB: 0.5, Tag: 1}}
	var slab Rejection
	slab.Reset(static, 2.0, 0.5, apps)
	fresh := NewRejection(static, 2.0, 0.5, apps)
	a, b := rng.NewStream(5, 6), rng.NewStream(5, 6)
	for i := 0; i < 1000; i++ {
		pa, pb := slab.Propose(a), fresh.Propose(b)
		if pa != pb {
			t.Fatalf("draw %d: slab %+v, fresh %+v", i, pa, pb)
		}
	}
}
