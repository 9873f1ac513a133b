package core_test

import (
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/stats"
)

// TestStepTrialsDistribution: the engine counts one trials-per-step
// observation per step into the attached counters, and the distribution
// is the same however the walk is scheduled — each walker draws from its
// own stream, so neither the worker count nor the rank count may change
// how many darts any step took. A biased node2vec walk with a strong
// return bias (p 0.25, folded as an outlier) and q 2 exercises
// pre-accepts, appendix darts, state queries and phase-C resolution; a
// biased DeepWalk throws exactly one dart per step.
func TestStepTrialsDistribution(t *testing.T) {
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(3000, 4, 300, 2.0, 5), 16, 2.0, 5)
	for _, tc := range []struct {
		name   string
		alg    *core.Algorithm
		static bool
	}{
		{"node2vec", alg.Node2Vec(alg.Node2VecParams{
			P: 0.25, Q: 2, Length: 20, Biased: true, LowerBound: true, FoldOutlier: true,
		}), false},
		{"deepwalk", alg.DeepWalk(20, true), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want stats.Pow2Counts
			for i, shape := range []struct{ nodes, workers int }{{1, 1}, {1, 4}, {3, 1}, {3, 4}} {
				var c stats.Counters
				res, err := core.Run(core.Config{
					Graph:     g,
					Algorithm: tc.alg,
					NumNodes:  shape.nodes,
					Workers:   shape.workers,
					Seed:      11,
					Counters:  &c,
				})
				if err != nil {
					t.Fatalf("%d nodes x %d workers: %v", shape.nodes, shape.workers, err)
				}
				got, batches, cs := c.StepTrials.Snapshot(), c.QueryBatch.Snapshot(), res.Counters
				if got.Count != cs.Steps {
					t.Fatalf("%d nodes x %d workers: trials-per-step count %d, want one per step (%d)",
						shape.nodes, shape.workers, got.Count, cs.Steps)
				}
				if batches.Sum != cs.Queries {
					t.Errorf("%d nodes x %d workers: %d query records in batches, %d queries issued",
						shape.nodes, shape.workers, batches.Sum, cs.Queries)
				}
				if i == 0 {
					want = got
					if tc.static && (got.Buckets[1] != cs.Steps || cs.Trials != cs.Steps) {
						t.Fatalf("static walk: %d of %d steps took one dart, %d trials", got.Buckets[1], cs.Steps, cs.Trials)
					}
					if !tc.static && (got.HighestNonEmpty() < 2 || cs.Queries == 0) {
						t.Fatalf("no step took more than one dart or no query was sent (buckets %v, %d queries)",
							got.Buckets[:4], cs.Queries)
					}
				}
				if got != want {
					t.Errorf("%d nodes x %d workers: trials-per-step %+v, want %+v", shape.nodes, shape.workers, got, want)
				}
			}
		})
	}
}
