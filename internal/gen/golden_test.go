package gen

import (
	"testing"

	"knightking/internal/graph"
)

// TestGeneratorsGolden pins graph.Fingerprint of every exported generator
// and weight/type assigner at fixed seeds, so a change to graph
// construction or to a generator that moves one edge, weight or type
// fails here. The last three cases are reduced-size graphs of the kkperf
// shapes: weighted power law with cap 2000 (the DeepWalk rows), unweighted
// with cap 500 (node2vec) and weighted with cap 1000 (kkserve).
func TestGeneratorsGolden(t *testing.T) {
	pl := TruncatedPowerLaw(3000, 4, 300, 2.0, 11)
	cases := []struct {
		name string
		g    func() *graph.Graph
		want uint64
	}{
		{"UniformDegree", func() *graph.Graph { return UniformDegree(2000, 8, 1) }, 0xe5e1ecec2d0aaebd},
		{"TruncatedPowerLaw", func() *graph.Graph { return pl }, 0x241f5d9f37c2b9cf},
		{"Hotspot", func() *graph.Graph { return Hotspot(2000, 6, 3, 400, 2) }, 0x42a054880cb662b0},
		{"ErdosRenyi", func() *graph.Graph { return ErdosRenyi(1500, 9000, 3) }, 0x8faea4f1225fe79e},
		{"RMAT", func() *graph.Graph { return RMAT(11, 8, 0.57, 0.19, 0.19, 4) }, 0xeb75463dd208cacf},
		{"Ring", func() *graph.Graph { return Ring(97, 5) }, 0xc12a4ffd05f6ff67},
		{"Complete", func() *graph.Graph { return Complete(40) }, 0x9017166c8ab6e381},
		{"Star", func() *graph.Graph { return Star(300) }, 0x3332a58b480518e6},
		{"PlantedPartition", func() *graph.Graph { return PlantedPartition(8, 150, 10, 2, 6) }, 0xdff0c627c2d8a02d},
		{"WithUniformWeights", func() *graph.Graph { return WithUniformWeights(pl, 1, 5, 7) }, 0xb8a0b53f5bb7bf87},
		{"WithPowerLawWeights", func() *graph.Graph { return WithPowerLawWeights(pl, 64, 2.0, 8) }, 0x442c75c2dfa9e5f3},
		{"WithTypes", func() *graph.Graph { return WithTypes(pl, 3, 9) }, 0x90cc206b2f08640f},
		{"WithTypesWeighted", func() *graph.Graph { return WithTypes(WithUniformWeights(pl, 1, 5, 10), 4, 10) }, 0x9f1da2553f609407},
		{"deepwalk shape", func() *graph.Graph {
			return WithPowerLawWeights(TruncatedPowerLaw(8000, 4, 2000, 2.0, 21), 16, 2.0, 21)
		}, 0x5a56bb9bd2344ba4},
		{"node2vec shape", func() *graph.Graph { return TruncatedPowerLaw(8000, 4, 500, 2.0, 22) }, 0xcd0af535faab249b},
		{"serve shape", func() *graph.Graph {
			return WithPowerLawWeights(TruncatedPowerLaw(8000, 4, 1000, 2.0, 23), 16, 2.0, 23)
		}, 0x65d47a554980a6c2},
	}
	for _, c := range cases {
		g := c.g()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := graph.Fingerprint(g); got != c.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
