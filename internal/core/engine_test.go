package core

import (
	"math"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/stats"
)

// staticAlg returns a minimal unbiased static walk of the given length.
func staticAlg(length int) *Algorithm {
	return &Algorithm{Name: "static", MaxSteps: length}
}

func TestRunValidation(t *testing.T) {
	g := gen.Ring(5, 0)
	cases := []Config{
		{},         // nil graph and algorithm
		{Graph: g}, // nil algorithm
		{Graph: g, Algorithm: &Algorithm{Name: "forever"}},                                                                                       // never terminates
		{Graph: g, Algorithm: &Algorithm{Name: "b", Biased: true, MaxSteps: 1}},                                                                  // biased on unweighted graph
		{Graph: g, Algorithm: &Algorithm{Name: "d", MaxSteps: 1, EdgeDynamicComp: func(*Walker, graph.Edge, uint64, bool) float64 { return 1 }}}, // no UpperBound
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStaticWalkBasics(t *testing.T) {
	g := gen.Ring(10, 0)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(5),
		NumWalkers:  20,
		Seed:        1,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Steps != 20*5 {
		t.Fatalf("Steps = %d, want 100", res.Counters.Steps)
	}
	if res.Counters.Terminations != 20 {
		t.Fatalf("Terminations = %d", res.Counters.Terminations)
	}
	if res.Counters.EdgeProbEvals != 0 {
		t.Fatalf("static walk evaluated %d dynamic probabilities", res.Counters.EdgeProbEvals)
	}
	if len(res.Paths) != 20 {
		t.Fatalf("%d paths", len(res.Paths))
	}
	for id, p := range res.Paths {
		if len(p) != 6 { // start + 5 moves
			t.Fatalf("walker %d path length %d", id, len(p))
		}
		if p[0] != graph.VertexID(id%10) {
			t.Fatalf("walker %d started at %d", id, p[0])
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("walker %d took non-edge %d->%d", id, p[i-1], p[i])
			}
		}
	}
	if res.Lengths.Mean() != 5 {
		t.Fatalf("mean length %v", res.Lengths.Mean())
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	g := gen.UniformDegree(100, 6, 3)
	run := func() *Result {
		res, err := Run(Config{Graph: g, Algorithm: staticAlg(10), Seed: 42, RecordPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	assertSamePaths(t, a.Paths, b.Paths)
}

func TestDeterminismAcrossNodeCounts(t *testing.T) {
	// The headline engine property: a walker's path depends only on (seed,
	// walker ID), not on partitioning, node count, or scheduling.
	g := gen.UniformDegree(200, 8, 5)
	var ref [][]graph.VertexID
	for _, nodes := range []int{1, 2, 4} {
		res, err := Run(Config{
			Graph:       g,
			Algorithm:   staticAlg(12),
			NumNodes:    nodes,
			Seed:        7,
			RecordPaths: true,
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if ref == nil {
			ref = res.Paths
			continue
		}
		assertSamePaths(t, ref, res.Paths)
	}
}

func TestBiasedStaticDistribution(t *testing.T) {
	// A 4-vertex star with weighted spokes; first hops from the center
	// must follow the weights.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 2)
	b.AddWeightedEdge(0, 3, 5)
	g := b.Build()
	const walkers = 60000
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   &Algorithm{Name: "biased", Biased: true, MaxSteps: 1},
		NumWalkers:  walkers,
		StartVertex: func(int64) graph.VertexID { return 0 },
		Seed:        9,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	for _, p := range res.Paths {
		if len(p) != 2 {
			t.Fatalf("path %v", p)
		}
		counts[p[1]]++
	}
	for v, want := range []float64{0, 1.0 / 8, 2.0 / 8, 5.0 / 8} {
		got := counts[v] / walkers
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("vertex %d frequency %v, want %v", v, got, want)
		}
	}
}

func TestTerminationProbability(t *testing.T) {
	g := gen.UniformDegree(50, 6, 11)
	const pt = 0.1
	res, err := Run(Config{
		Graph:      g,
		Algorithm:  &Algorithm{Name: "ppr-ish", TerminationProb: pt},
		NumWalkers: 20000,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Geometric: E[steps] = (1-pt)/pt = 9.
	mean := res.Lengths.Mean()
	if math.Abs(mean-9) > 0.5 {
		t.Fatalf("mean walk length %v, want ~9", mean)
	}
	if res.Lengths.Max() <= 20 {
		t.Fatalf("max length %d suspiciously small — no long tail", res.Lengths.Max())
	}
}

func TestWalkStopsAtSink(t *testing.T) {
	// Directed path 0 -> 1 -> 2; all walks from 0 must stop at 2.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(10),
		NumWalkers:  5,
		StartVertex: func(int64) graph.VertexID { return 0 },
		Seed:        1,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths {
		if len(p) != 3 || p[2] != 2 {
			t.Fatalf("path %v, want [0 1 2]", p)
		}
	}
	if res.Counters.Terminations != 5 {
		t.Fatalf("Terminations = %d", res.Counters.Terminations)
	}
}

func TestFirstOrderDynamicWalk(t *testing.T) {
	// A first-order dynamic walk that only allows edges to even vertices.
	g := gen.UniformDegree(60, 8, 17)
	evenOnly := &Algorithm{
		Name:     "even-only",
		MaxSteps: 4,
		EdgeDynamicComp: func(w *Walker, e graph.Edge, _ uint64, _ bool) float64 {
			if e.Dst%2 == 0 {
				return 1
			}
			return 0
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return 1 },
	}
	res, err := Run(Config{Graph: g, Algorithm: evenOnly, Seed: 3, RecordPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, p := range res.Paths {
		for i := 1; i < len(p); i++ {
			moved++
			if p[i]%2 != 0 {
				t.Fatalf("walk moved to odd vertex: %v", p)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no moves at all")
	}
	if res.Counters.EdgeProbEvals == 0 {
		t.Fatal("dynamic walk did not evaluate any probabilities")
	}
}

func TestFullScanFallbackTerminatesZeroMassWalks(t *testing.T) {
	// Pd ≡ 0: rejection alone would spin forever; the fallback must detect
	// zero mass and finish every walker.
	g := gen.Ring(12, 0)
	stuck := &Algorithm{
		Name:            "stuck",
		MaxSteps:        5,
		EdgeDynamicComp: func(*Walker, graph.Edge, uint64, bool) float64 { return 0 },
		UpperBound:      func(*graph.Graph, graph.VertexID) float64 { return 1 },
		FallbackTrials:  8,
	}
	res, err := Run(Config{Graph: g, Algorithm: stuck, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Terminations != int64(g.NumVertices()) {
		t.Fatalf("Terminations = %d", res.Counters.Terminations)
	}
	if res.Counters.Steps != 0 {
		t.Fatalf("zero-mass walk took %d steps", res.Counters.Steps)
	}
}

func TestCustomStartAndWalkerCount(t *testing.T) {
	g := gen.Ring(10, 0)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(2),
		NumWalkers:  7,
		StartVertex: func(id int64) graph.VertexID { return graph.VertexID((id * 3) % 10) },
		Seed:        1,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range res.Paths {
		want := graph.VertexID((id * 3) % 10)
		if p[0] != want {
			t.Fatalf("walker %d started at %d, want %d", id, p[0], want)
		}
	}
}

func TestLightModeDoesNotChangeResults(t *testing.T) {
	g := gen.UniformDegree(80, 6, 19)
	run := func(threshold int) [][]graph.VertexID {
		res, err := Run(Config{
			Graph:          g,
			Algorithm:      staticAlg(8),
			Seed:           21,
			RecordPaths:    true,
			LightThreshold: threshold,
			NumNodes:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Paths
	}
	assertSamePaths(t, run(-1), run(1<<20))
}

// TestIterationLogRecordsShrinkingActiveSet: rank 0's spans form the
// per-superstep active-set series Figure 5 plots.
func TestIterationLogRecordsShrinkingActiveSet(t *testing.T) {
	g := gen.UniformDegree(50, 6, 23)
	log := &spanLog{}
	_, err := Run(Config{
		Graph:      g,
		Algorithm:  &Algorithm{Name: "geo", TerminationProb: 0.3},
		NumWalkers: 1000,
		Seed:       25,
		Observer:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := log.spans
	if len(recs) < 3 {
		t.Fatalf("only %d spans", len(recs))
	}
	if recs[len(recs)-1].GlobalWalkers != 0 {
		t.Fatalf("last span has %d active walkers", recs[len(recs)-1].GlobalWalkers)
	}
	// Active set must be non-increasing for a pure-termination walk.
	for i := 1; i < len(recs); i++ {
		if recs[i].GlobalWalkers > recs[i-1].GlobalWalkers {
			t.Fatalf("active walkers grew at superstep %d: %d -> %d",
				recs[i].Iteration, recs[i-1].GlobalWalkers, recs[i].GlobalWalkers)
		}
	}
}

func TestMaxIterationsGuard(t *testing.T) {
	g := gen.Ring(5, 0)
	_, err := Run(Config{
		Graph:         g,
		Algorithm:     staticAlg(100),
		Seed:          1,
		MaxIterations: 3,
	})
	if err == nil {
		t.Fatal("expected max-iterations error")
	}
}

func assertSamePaths(t *testing.T, a, b [][]graph.VertexID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("path counts differ: %d vs %d", len(a), len(b))
	}
	for id := range a {
		if len(a[id]) != len(b[id]) {
			t.Fatalf("walker %d path lengths differ: %v vs %v", id, a[id], b[id])
		}
		for i := range a[id] {
			if a[id][i] != b[id][i] {
				t.Fatalf("walker %d paths diverge at %d: %v vs %v", id, i, a[id], b[id])
			}
		}
	}
}

func TestMoreWalkersThanVertices(t *testing.T) {
	// The paper repeats walks over multiple rounds; here that is just
	// NumWalkers = k·|V| with the default id-mod-|V| placement.
	g := gen.Ring(10, 0)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(4),
		NumWalkers:  35,
		Seed:        5,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Terminations != 35 {
		t.Fatalf("Terminations = %d", res.Counters.Terminations)
	}
	// Walkers 3 and 13 share a start vertex but must walk independently.
	if res.Paths[3][0] != res.Paths[13][0] {
		t.Fatal("start placement wrong")
	}
	same := true
	for i := range res.Paths[3] {
		if res.Paths[3][i] != res.Paths[13][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("same-start walkers produced identical paths (RNG streams shared?)")
	}
}

func TestIsolatedStartVertexTerminatesImmediately(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1) // vertex 2 isolated
	g := b.Build()
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(5),
		NumWalkers:  1,
		StartVertex: func(int64) graph.VertexID { return 2 },
		Seed:        1,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Steps != 0 || len(res.Paths[0]) != 1 {
		t.Fatalf("isolated start walked: %v", res.Paths[0])
	}
}

func TestManyNodesFewVertices(t *testing.T) {
	// More logical nodes than vertices: some ranks own empty ranges and
	// must still participate in every exchange without deadlocking.
	g := gen.Ring(3, 0)
	res, err := Run(Config{
		Graph:     g,
		Algorithm: staticAlg(6),
		NumNodes:  8,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Steps != 3*6 {
		t.Fatalf("Steps = %d", res.Counters.Steps)
	}
}

func TestExternalCountersAccumulate(t *testing.T) {
	g := gen.Ring(5, 0)
	var c stats.Counters
	for i := 0; i < 3; i++ {
		if _, err := Run(Config{Graph: g, Algorithm: staticAlg(2), Seed: uint64(i), Counters: &c}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Steps.Load(); got != 3*5*2 {
		t.Fatalf("accumulated steps = %d, want 30", got)
	}
}
