package core_test

import (
	"slices"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
)

// TestNode2VecTwoRanksMatchesOneRankAtScale runs node2vec with enough
// walkers that phase C resolves tens of thousands of state-query responses
// on 2 ranks, a large share of them accepting a move to the other rank, and
// requires the paths to match a 1-rank run of the same seed byte for byte.
func TestNode2VecTwoRanksMatchesOneRankAtScale(t *testing.T) {
	g := gen.TruncatedPowerLaw(20000, 4, 500, 2.0, 3)
	a := alg.Node2Vec(alg.Node2VecParams{
		P: 2, Q: 0.5, Length: 20, LowerBound: true, FoldOutlier: true,
	})
	run := func(ranks int) *core.Result {
		res, err := core.Run(core.Config{
			Graph:       g,
			Algorithm:   a,
			NumNodes:    ranks,
			Workers:     1,
			NumWalkers:  20000,
			Seed:        9,
			RecordPaths: true,
		})
		if err != nil {
			t.Fatalf("%d ranks: %v", ranks, err)
		}
		return res
	}
	one, two := run(1), run(2)
	if q := two.Counters.Queries; q < 100000 {
		t.Fatalf("2-rank run issued %d state queries; too few to exercise phase C at scale", q)
	}
	for id := range one.Paths {
		if !slices.Equal(one.Paths[id], two.Paths[id]) {
			t.Fatalf("walker %d: 2-rank path %v, 1-rank path %v", id, two.Paths[id], one.Paths[id])
		}
	}
	if one.Counters.Steps != two.Counters.Steps || one.Counters.Trials != two.Counters.Trials {
		t.Fatalf("steps/trials %d/%d on 2 ranks, %d/%d on 1", two.Counters.Steps, two.Counters.Trials, one.Counters.Steps, one.Counters.Trials)
	}
}
