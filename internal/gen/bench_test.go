package gen

import (
	"testing"

	"knightking/internal/graph"
)

// BenchmarkGenerate builds the graphs of the three kkperf shapes at their
// full size: the weighted power law with cap 2000 of the DeepWalk rows,
// the unweighted one with cap 500 of node2vec and the weighted one with
// cap 1000 of kkserve. It reports ns per stored edge beside ns/op.
func BenchmarkGenerate(b *testing.B) {
	shapes := []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"deepwalk", func() *graph.Graph {
			return WithPowerLawWeights(TruncatedPowerLaw(50000, 4, 2000, 2.0, 1), 16, 2.0, 1)
		}},
		{"node2vec", func() *graph.Graph { return TruncatedPowerLaw(50000, 4, 500, 2.0, 2) }},
		{"serve", func() *graph.Graph {
			return WithPowerLawWeights(TruncatedPowerLaw(100000, 4, 1000, 2.0, 3), 16, 2.0, 3)
		}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				edges = s.gen().NumEdges()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*edges), "ns/edge")
		})
	}
}
