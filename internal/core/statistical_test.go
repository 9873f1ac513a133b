package core

import (
	"math"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
)

// TestStationaryDistributionMatchesDegree is an end-to-end statistical
// check of the whole engine: on a connected undirected graph, the
// stationary distribution of an unbiased random walk is exactly
// deg(v)/2|E|. Long walks' visit frequencies must converge to it.
func TestStationaryDistributionMatchesDegree(t *testing.T) {
	g := gen.UniformDegree(200, 8, 41) // near-regular, fast mixing
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(400),
		NumWalkers:  400,
		NumNodes:    3,
		Seed:        43,
		CountVisits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := float64(res.Counters.Steps)
	twoE := float64(g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		want := float64(g.Degree(graph.VertexID(v))) / twoE
		got := float64(res.Visits[v]) / total
		// ~160k total visits, ~800 expected per vertex: 4-sigma tolerance.
		sigma := math.Sqrt(want * (1 - want) / total)
		if math.Abs(got-want) > 5*sigma+1e-4 {
			t.Fatalf("vertex %d: visit frequency %v, stationary %v (deg %d)",
				v, got, want, g.Degree(graph.VertexID(v)))
		}
	}
}

// TestStationaryDistributionWeighted: for a weighted walk the stationary
// probability is strength(v)/Σstrength, where strength is the vertex's
// total edge weight (holds because the symmetric weights make the chain
// reversible).
func TestStationaryDistributionWeighted(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(100, 10, 47), 1, 5, 49)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   &Algorithm{Name: "wstat", Biased: true, MaxSteps: 500},
		NumWalkers:  300,
		NumNodes:    2,
		Seed:        51,
		CountVisits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalStrength := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		totalStrength += g.TotalWeight(graph.VertexID(v))
	}
	total := float64(res.Counters.Steps)
	var worst float64
	for v := 0; v < g.NumVertices(); v++ {
		want := g.TotalWeight(graph.VertexID(v)) / totalStrength
		got := float64(res.Visits[v]) / total
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	// 150k visits over 100 vertices: relative error per vertex should stay
	// within ~15%.
	if worst > 0.2 {
		t.Fatalf("worst relative deviation from weighted stationary: %v", worst)
	}
}

// TestNode2vecDegeneratesToUnbiasedWalk: with p=q=1, node2vec is exactly
// the unbiased first-order walk, so its stationary distribution must also
// be degree-proportional — validated through the full second-order query
// machinery.
func TestNode2vecDegeneratesToUnbiasedWalk(t *testing.T) {
	g := gen.UniformDegree(100, 8, 53)
	alg := &Algorithm{
		Name:     "n2v-uniform",
		MaxSteps: 200,
		EdgeDynamicComp: func(w *Walker, e graph.Edge, result uint64, hasResult bool) float64 {
			return 1
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return 1 },
		PostQuery: func(w *Walker, e graph.Edge) (graph.VertexID, uint64, bool) {
			if w.Step == 0 {
				return 0, 0, false
			}
			return w.Prev, uint64(e.Dst), true // pointless but exercised
		},
	}
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   alg,
		NumWalkers:  300,
		NumNodes:    4,
		Seed:        57,
		CountVisits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Queries == 0 {
		t.Fatal("query machinery not exercised")
	}
	total := float64(res.Counters.Steps)
	twoE := float64(g.NumEdges())
	var worst float64
	for v := 0; v < g.NumVertices(); v++ {
		want := float64(g.Degree(graph.VertexID(v))) / twoE
		got := float64(res.Visits[v]) / total
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.25 {
		t.Fatalf("worst relative deviation %v from degree-proportional stationary", worst)
	}
}

// node2vecAlg builds the node2vec walk inline (this package cannot import
// internal/alg without a cycle), replicating alg.Node2Vec's Pd semantics:
// 1/p for the return edge, 1 for edges closing a triangle with the previous
// vertex, 1/q otherwise, with the first step sampled by Ps alone.
func node2vecAlg(p, q float64, length int) *Algorithm {
	invP, invQ := 1/p, 1/q
	fullBound := math.Max(math.Max(1, invP), invQ)
	return &Algorithm{
		Name:     "n2v-inline",
		MaxSteps: length,
		EdgeDynamicComp: func(w *Walker, e graph.Edge, result uint64, hasResult bool) float64 {
			if w.Step == 0 {
				return fullBound
			}
			if e.Dst == w.Prev {
				return invP
			}
			if !hasResult {
				panic("n2v-inline: non-return Pd requires a query result")
			}
			if result != 0 {
				return 1
			}
			return invQ
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return fullBound },
		PostQuery: func(w *Walker, e graph.Edge) (graph.VertexID, uint64, bool) {
			if w.Step == 0 || e.Dst == w.Prev {
				return 0, 0, false
			}
			return w.Prev, uint64(e.Dst), true
		},
	}
}

// TestNode2vecSecondOrderChiSquare is an exact distributional check of the
// distributed second-order machinery: over a multi-rank node2vec run, the
// observed next-vertex counts at every (prev, cur) context are tested with
// a chi-square statistic against the closed-form transition distribution
// weight(x) ∝ 1/p · [x = prev] + 1 · [prev~x] + 1/q · [otherwise]. A biased
// remote-query path (wrong adjacency answers, walker state corrupted across
// migrations, RNG stream mixups) shifts these conditionals even when
// first-order stationary checks still pass.
func TestNode2vecSecondOrderChiSquare(t *testing.T) {
	const (
		p, q    = 2.0, 0.5
		length  = 48
		walkers = 2500
	)
	g := gen.UniformDegree(60, 6, 61)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   node2vecAlg(p, q, length),
		NumWalkers:  walkers,
		NumNodes:    4,
		Seed:        63,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Queries == 0 {
		t.Fatal("no remote state queries; the second-order path was not exercised")
	}

	// Tally observed transitions per context (prev, cur) → next.
	type context struct{ prev, cur graph.VertexID }
	observed := make(map[context]map[graph.VertexID]int)
	for _, path := range res.Paths {
		for i := 1; i+1 < len(path); i++ {
			ctx := context{path[i-1], path[i]}
			m := observed[ctx]
			if m == nil {
				m = make(map[graph.VertexID]int)
				observed[ctx] = m
			}
			m[path[i+1]]++
		}
	}

	// Chi-square against the exact conditional at each context, pooling all
	// contexts into one aggregate statistic. Contexts whose smallest expected
	// cell is below 5 are skipped (standard chi-square applicability bound).
	invP, invQ := 1/p, 1/q
	var chi2 float64
	df, contexts := 0, 0
	for ctx, counts := range observed {
		n := 0
		for _, c := range counts {
			n += c
		}
		// Exact next-vertex distribution (parallel edges pooled by vertex).
		probs := make(map[graph.VertexID]float64)
		total := 0.0
		for _, x := range g.Neighbors(ctx.cur) {
			var w float64
			switch {
			case x == ctx.prev:
				w = invP
			case g.HasEdge(ctx.prev, x):
				w = 1
			default:
				w = invQ
			}
			probs[x] += w
			total += w
		}
		minExp := math.Inf(1)
		for _, w := range probs {
			if e := float64(n) * w / total; e < minExp {
				minExp = e
			}
		}
		if minExp < 5 {
			continue
		}
		for x, w := range probs {
			e := float64(n) * w / total
			d := float64(counts[x]) - e
			chi2 += d * d / e
		}
		df += len(probs) - 1
		contexts++
	}
	assertChiSquare(t, chi2, df, contexts, 100)
}

// chiSquareNext pools a chi-square statistic over per-vertex next-step
// conditionals: for every path transition cur→next, the expected
// distribution is weight(cur, i) over cur's out-edges, pooled by
// destination vertex. Contexts whose smallest expected cell is below 5 are
// skipped (standard applicability bound). Returns chi2, degrees of
// freedom, and the number of contexts tested.
func chiSquareNext(t *testing.T, g *graph.Graph, paths [][]graph.VertexID,
	weight func(cur graph.VertexID, i int) float64) (float64, int, int) {
	t.Helper()
	observed := make(map[graph.VertexID]map[graph.VertexID]int)
	for _, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			m := observed[path[i]]
			if m == nil {
				m = make(map[graph.VertexID]int)
				observed[path[i]] = m
			}
			m[path[i+1]]++
		}
	}
	var chi2 float64
	df, contexts := 0, 0
	for cur, counts := range observed {
		n := 0
		for _, c := range counts {
			n += c
		}
		probs := make(map[graph.VertexID]float64)
		total := 0.0
		for i, x := range g.Neighbors(cur) {
			w := weight(cur, i)
			probs[x] += w
			total += w
		}
		minExp := math.Inf(1)
		for _, w := range probs {
			if e := float64(n) * w / total; e < minExp {
				minExp = e
			}
		}
		if minExp < 5 {
			continue
		}
		for x, w := range probs {
			e := float64(n) * w / total
			d := float64(counts[x]) - e
			chi2 += d * d / e
		}
		df += len(probs) - 1
		contexts++
	}
	return chi2, df, contexts
}

// assertChiSquare applies a ±6σ band: for large df, chi-square is
// ~N(df, 2df); the upper bound catches bias, the lower bound catches a
// vacuous test (e.g. counts derived from the expectation itself).
func assertChiSquare(t *testing.T, chi2 float64, df, contexts, minContexts int) {
	t.Helper()
	if contexts < minContexts {
		t.Fatalf("only %d contexts had enough mass (want >= %d); increase walkers", contexts, minContexts)
	}
	band := 6 * math.Sqrt(2*float64(df))
	t.Logf("chi2 = %.1f over df = %d (%d contexts), band ±%.1f", chi2, df, contexts, band)
	if chi2 > float64(df)+band {
		t.Fatalf("chi2 = %.1f exceeds %.1f at df = %d: sampled transitions deviate from the exact distribution", chi2, float64(df)+band, df)
	}
	if chi2 < float64(df)-band {
		t.Fatalf("chi2 = %.1f implausibly small for df = %d", chi2, df)
	}
}

// TestFullScanFallbackChiSquare pins the distribution of the exact
// full-scan fallback. With FallbackTrials = 1 every step whose first dart
// is rejected (~37 % under this Pd) resolves through fullScanChoose, so
// the pooled transition counts must pass chi-square against Pd(e)/ΣPd.
func TestFullScanFallbackChiSquare(t *testing.T) {
	pd := func(dst graph.VertexID) float64 {
		return []float64{1, 0.75, 0.5, 0.25}[dst%4]
	}
	a := &Algorithm{
		Name:           "full-scan-fallback",
		MaxSteps:       40,
		FallbackTrials: 1,
		EdgeDynamicComp: func(w *Walker, e graph.Edge, _ uint64, _ bool) float64 {
			return pd(e.Dst)
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return 1 },
	}
	g := gen.UniformDegree(60, 6, 241)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   a,
		NumWalkers:  1500,
		NumNodes:    3,
		Seed:        243,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One Pd evaluation for the dart plus, on rejection, one per edge of
	// the scanned vertex: about 1 + 0.375·6 per step (3.0 as run). Without
	// the scan the ratio would be exactly 1.
	ratio := float64(res.Counters.EdgeProbEvals) / float64(res.Counters.Steps)
	t.Logf("EdgeProbEvals/Steps = %.2f", ratio)
	if ratio < 2 {
		t.Fatalf("EdgeProbEvals/Steps = %.2f (want about 3); the full scan did not run", ratio)
	}
	chi2, df, contexts := chiSquareNext(t, g, res.Paths, func(cur graph.VertexID, i int) float64 {
		return pd(g.Neighbors(cur)[i])
	})
	assertChiSquare(t, chi2, df, contexts, 50)
}
