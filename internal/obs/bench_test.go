package obs

import (
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
)

// BenchmarkRegistryOverhead runs core's BenchmarkEngineDeepWalkBiased2Ranks
// walk (biased DeepWalk of length 40 over a 50k-vertex weighted power-law
// graph, 2 in-process ranks) with 2 workers per rank, once plain and once
// with a Registry attached the way kkwalk -json attaches one, and reports
// walk time per step, set-up excluded. The ratio of the two is what a
// Registry costs the engine.
func BenchmarkRegistryOverhead(b *testing.B) {
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(50000, 4, 2000, 2.0, 1), 16, 2.0, 1)
	a := alg.DeepWalk(40, true)
	for _, attach := range []bool{false, true} {
		name := "plain"
		if attach {
			name = "registry"
		}
		b.Run(name, func(b *testing.B) {
			var steps int64
			var walk time.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Graph:     g,
					Algorithm: a,
					NumNodes:  2,
					Workers:   2,
					Seed:      uint64(i + 1),
				}
				if attach {
					reg := NewRegistry(nil)
					cfg.Counters = reg.Counters()
					cfg.Observer = reg
				}
				res, err := core.Run(cfg)
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
