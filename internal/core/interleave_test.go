package core

// Equivalence tests for the interleaved stepping pipeline. The determinism
// contract: under the same seed and config, interleaved stepping — at any
// batch size — produces bit-identical walks, counters, and visit counts to
// the scalar reference loop, because every RNG draw happens in decideStep
// in per-walker program order and the gather stage only loads.

import (
	"reflect"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
)

// runStepping runs cfg with the given stepping strategy and batch size.
func runStepping(t *testing.T, cfg Config, stepping string, batch int) *Result {
	t.Helper()
	cfg.Stepping = stepping
	cfg.BatchSize = batch
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("stepping=%s batch=%d: %v", stepping, batch, err)
	}
	return res
}

// assertSameRun asserts bit-identical walk output and identical sampling
// work between two runs.
func assertSameRun(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Paths, got.Paths) {
		t.Errorf("%s: walker paths differ", label)
	}
	if !reflect.DeepEqual(want.Visits, got.Visits) {
		t.Errorf("%s: visit counts differ", label)
	}
	if !reflect.DeepEqual(want.Lengths.State(), got.Lengths.State()) {
		t.Errorf("%s: length histograms differ", label)
	}
	w, g := want.Counters, got.Counters
	for _, c := range []struct {
		name      string
		want, got int64
	}{
		{"Steps", w.Steps, g.Steps},
		{"Terminations", w.Terminations, g.Terminations},
		{"Restarts", w.Restarts, g.Restarts},
		{"Trials", w.Trials, g.Trials},
		{"EdgeProbEvals", w.EdgeProbEvals, g.EdgeProbEvals},
		{"PreAccepts", w.PreAccepts, g.PreAccepts},
		{"AppendixHits", w.AppendixHits, g.AppendixHits},
		{"Queries", w.Queries, g.Queries},
	} {
		if c.want != c.got {
			t.Errorf("%s: %s = %d, want %d", label, c.name, c.got, c.want)
		}
	}
}

// interleaveCases covers every stepping-relevant engine path: static
// uniform and biased proposals, first-order dynamic rejection with
// restarts and terminations, and two higher-order walks exercising the
// park/query/resume machinery. The two static-biased variants cover every
// branch of the split static move: finish (max steps and termination
// probability), teleport, dead end, bucket hit and alias hit on skewed
// weights, and rows supplied through Config.Samplers (with holes the node
// fills with rows of its own).
func interleaveCases(t *testing.T) map[string]Config {
	skewed := gen.WithPowerLawWeights(gen.UniformDegree(110, 7, 229), 16, 2.0, 230)
	provided := gen.WithUniformWeights(gen.UniformDegree(90, 6, 233), 1, 9, 234)
	restarting := &Algorithm{
		Name:            "restarting-dynamic",
		MaxSteps:        14,
		RestartProb:     0.1,
		TerminationProb: 0.05,
		EdgeDynamicComp: func(w *Walker, e graph.Edge, _ uint64, _ bool) float64 {
			return []float64{1, 0.75, 0.5, 0.25}[e.Dst%4]
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return 1 },
	}
	return map[string]Config{
		"static-uniform": {
			Graph:     gen.UniformDegree(120, 6, 211),
			Algorithm: staticAlg(12),
			NumNodes:  3,
		},
		"static-biased": {
			Graph:     gen.WithUniformWeights(gen.UniformDegree(90, 7, 213), 1, 5, 214),
			Algorithm: &Algorithm{Name: "biased", Biased: true, MaxSteps: 10},
			NumNodes:  2,
		},
		"static-biased-restart-sinks": {
			Graph: withSinks(skewed, 9),
			Algorithm: &Algorithm{
				Name: "biased-restart", Biased: true, MaxSteps: 16,
				RestartProb: 0.1, TerminationProb: 0.05,
			},
			NumNodes: 3,
		},
		"static-biased-provided": {
			Graph:     provided,
			Algorithm: &Algorithm{Name: "biased", Biased: true, MaxSteps: 12},
			NumNodes:  2,
			Samplers:  buildProvider(t, provided, func(v int) bool { return v%4 == 0 }),
		},
		"first-order-dynamic": {
			Graph:     gen.UniformDegree(100, 8, 217),
			Algorithm: restarting,
			NumNodes:  3,
		},
		"higher-order-parity": {
			Graph:     gen.UniformDegree(80, 6, 219),
			Algorithm: parityAlg(9),
			NumNodes:  3,
		},
		"node2vec": {
			Graph:     gen.UniformDegree(70, 6, 223),
			Algorithm: node2vecAlg(2, 0.5, 10),
			NumNodes:  4,
		},
	}
}

// withSinks copies weighted g without the out-edges of every vertex
// v%every == 0, so walks reaching one end there.
func withSinks(g *graph.Graph, every int) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		if v%every == 0 {
			continue
		}
		for i, dst := range g.Neighbors(id) {
			b.AddWeightedEdge(id, dst, g.Weights(id)[i])
		}
	}
	return b.Build()
}

func TestInterleavedMatchesScalar(t *testing.T) {
	for name, cfg := range interleaveCases(t) {
		cfg.Seed = 227
		cfg.RecordPaths = true
		cfg.CountVisits = true
		scalar := runStepping(t, cfg, SteppingScalar, 0)
		// Batch size 1 degenerates to one-walker batches, 3 forces every
		// batch boundary misalignment against the walker list, 256 is the
		// production default.
		for _, batch := range []int{1, 3, 256} {
			got := runStepping(t, cfg, SteppingInterleaved, batch)
			assertSameRun(t, scalar, got, name+"/batch="+itoa(batch))
		}
		if scalar.Counters.Steps == 0 {
			t.Fatalf("%s: no steps taken; equivalence is vacuous", name)
		}
		if name == "static-biased-restart-sinks" {
			checkStaticEndings(t, cfg, scalar)
		}
	}
}

// checkStaticEndings asserts that a static walk with restarts, a
// termination probability and sinks took every way a step can end:
// teleports, dead ends, early terminations and full-length walks.
func checkStaticEndings(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	var deadEnds, early, full int
	for _, p := range res.Paths {
		last := p[len(p)-1]
		switch {
		case len(p)-1 == cfg.Algorithm.MaxSteps:
			full++
		case cfg.Graph.Degree(last) == 0:
			deadEnds++
		default:
			early++
		}
	}
	if res.Counters.Restarts == 0 || deadEnds == 0 || early == 0 || full == 0 {
		t.Fatalf("restarts %d, dead ends %d, early terminations %d, full walks %d: a static ending went untested",
			res.Counters.Restarts, deadEnds, early, full)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
