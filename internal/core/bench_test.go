package core_test

import (
	"fmt"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
)

// benchRun executes one engine run and reports steps/sec and allocs/op.
// stepping "" uses the default (interleaved); the Scalar variants pin the
// reference loop so regressions in either strategy are visible separately
// in the trend data.
func benchRun(b *testing.B, a *core.Algorithm, nodes int, stepping string) {
	b.Helper()
	g := gen.TruncatedPowerLaw(5000, 4, 500, 2.0, 1)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Graph:     g,
			Algorithm: a,
			NumNodes:  nodes,
			Seed:      uint64(i + 1),
			Stepping:  stepping,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Counters.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkEngineDeepWalk(b *testing.B) {
	benchRun(b, alg.DeepWalk(20, false), 1, "")
}

func BenchmarkEngineDeepWalk4Nodes(b *testing.B) {
	benchRun(b, alg.DeepWalk(20, false), 4, "")
}

func BenchmarkEngineDeepWalk4NodesScalar(b *testing.B) {
	benchRun(b, alg.DeepWalk(20, false), 4, core.SteppingScalar)
}

func BenchmarkEnginePPR(b *testing.B) {
	benchRun(b, alg.PPR(0.05, false, 0), 1, "")
}

func BenchmarkEngineMetaPath(b *testing.B) {
	g := gen.WithTypes(gen.TruncatedPowerLaw(5000, 4, 500, 2.0, 1), 3, 2)
	a := alg.MetaPath([][]int32{{0, 1}, {2}}, 20, false)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{Graph: g, Algorithm: a, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Counters.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkEngineNode2Vec(b *testing.B) {
	benchRun(b, alg.Node2Vec(alg.Node2VecParams{
		P: 2, Q: 0.5, Length: 20, LowerBound: true, FoldOutlier: true,
	}), 1, "")
}

func BenchmarkEngineNode2Vec4Nodes(b *testing.B) {
	benchRun(b, alg.Node2Vec(alg.Node2VecParams{
		P: 2, Q: 0.5, Length: 20, LowerBound: true, FoldOutlier: true,
	}), 4, "")
}

func BenchmarkEngineNode2Vec4NodesScalar(b *testing.B) {
	benchRun(b, alg.Node2Vec(alg.Node2VecParams{
		P: 2, Q: 0.5, Length: 20, LowerBound: true, FoldOutlier: true,
	}), 4, core.SteppingScalar)
}

// BenchmarkEngineNode2Vec2RanksScaling runs node2vec on 2 in-process ranks
// at two walker counts over one 50k-vertex power-law graph and reports walk
// time per step (set-up excluded). The ratio between the sub-benchmarks is
// the regression guard: a per-step cost that grows with the walker count
// (such as a scan of the walker list per cross-rank acceptance) makes the
// larger run's ns/step climb.
func BenchmarkEngineNode2Vec2RanksScaling(b *testing.B) {
	g := gen.TruncatedPowerLaw(50000, 4, 500, 2.0, 1)
	a := alg.Node2Vec(alg.Node2VecParams{
		P: 2, Q: 0.5, Length: 20, LowerBound: true, FoldOutlier: true,
	})
	for _, walkers := range []int{25000, 100000} {
		b.Run(fmt.Sprintf("walkers=%d", walkers), func(b *testing.B) {
			var steps int64
			var walk time.Duration
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Graph:      g,
					Algorithm:  a,
					NumNodes:   2,
					Workers:    1,
					NumWalkers: walkers,
					Seed:       uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Counters.Steps
				walk += res.Duration
			}
			b.ReportMetric(float64(walk.Nanoseconds())/float64(steps), "ns/step")
		})
	}
}

// BenchmarkEngineDeepWalkBiased2Ranks runs biased DeepWalk, the static
// alias-row kernel, on 2 in-process ranks × 1 worker over a 50k-vertex
// weighted power-law graph (~1.2M edges, tables well past L2) and reports
// walk time per step, set-up excluded. The other engine benchmarks walk
// unweighted graphs and never draw from an alias row.
func BenchmarkEngineDeepWalkBiased2Ranks(b *testing.B) {
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(50000, 4, 2000, 2.0, 1), 16, 2.0, 1)
	benchStatic2Ranks(b, g, alg.DeepWalk(40, true))
}

// BenchmarkEngineDeepWalk2Ranks is the unweighted twin of
// BenchmarkEngineDeepWalkBiased2Ranks: the same 50k-vertex graph without
// weights, so each step draws a CSR slot instead of an alias entry. The
// 5k-vertex graph of the other uniform benchmarks fits in cache and hides
// what a step waits on memory for.
func BenchmarkEngineDeepWalk2Ranks(b *testing.B) {
	g := gen.TruncatedPowerLaw(50000, 4, 2000, 2.0, 1)
	benchStatic2Ranks(b, g, alg.DeepWalk(40, false))
}

// benchStatic2Ranks runs a on g over 2 in-process ranks × 1 worker and
// reports walk time per step, set-up excluded.
func benchStatic2Ranks(b *testing.B, g *graph.Graph, a *core.Algorithm) {
	var steps int64
	var walk time.Duration
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Graph:     g,
			Algorithm: a,
			NumNodes:  2,
			Workers:   1,
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Counters.Steps
		walk += res.Duration
	}
	b.ReportMetric(float64(walk.Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkEngineSetup times the engine's set-up alone, the alias rows of
// biased DeepWalk over the 50k-vertex weighted power-law graph of
// BenchmarkEngineDeepWalkBiased2Ranks, at 1 and 2 in-process ranks × 1
// and 2 workers. It reports Result.SetupDuration per stored edge; the one
// walker of one step keeps the walk out of the way.
func BenchmarkEngineSetup(b *testing.B) {
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(50000, 4, 2000, 2.0, 1), 16, 2.0, 1)
	for _, ranks := range []int{1, 2} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("ranks=%d/workers=%d", ranks, workers), func(b *testing.B) {
				var setup time.Duration
				for i := 0; i < b.N; i++ {
					res, err := core.Run(core.Config{
						Graph:      g,
						Algorithm:  alg.DeepWalk(1, true),
						NumNodes:   ranks,
						Workers:    workers,
						NumWalkers: 1,
						Seed:       uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					setup += res.SetupDuration
				}
				b.ReportMetric(float64(setup.Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
			})
		}
	}
}
