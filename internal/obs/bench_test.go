package obs

import (
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/obs/tracelog"
)

// BenchmarkRegistryOverhead runs core's BenchmarkEngineDeepWalkBiased2Ranks
// walk (biased DeepWalk of length 40 over a 50k-vertex weighted power-law
// graph, 2 in-process ranks) with 2 workers per rank, once plain, once
// with a Registry attached the way kkwalk -json attaches one, and once
// with a tracelog.Collector as Observer and Tracer the way kkwalk -trace
// attaches one, and reports walk time per step, set-up excluded. The
// ratio of each to plain is what that sink costs the engine.
func BenchmarkRegistryOverhead(b *testing.B) {
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(50000, 4, 2000, 2.0, 1), 16, 2.0, 1)
	a := alg.DeepWalk(40, true)
	for _, name := range []string{"plain", "registry", "tracelog"} {
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
				switch name {
				case "registry":
					reg := NewRegistry(nil)
					cfg.Counters = reg.Counters()
					cfg.Observer = reg
				case "tracelog":
					tc := tracelog.New(tracelog.Options{Ranks: 2})
					cfg.Observer, cfg.Trace = tc, tc
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
