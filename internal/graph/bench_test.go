package graph

import (
	"testing"

	"knightking/internal/rng"
)

func benchGraph(b *testing.B, n, deg int) *Graph {
	b.Helper()
	r := rng.New(1)
	bld := NewBuilder(n).SetUndirected(true).SetDedup(true)
	for v := 0; v < n; v++ {
		for k := 0; k < deg/2; k++ {
			u := VertexID(r.Intn(n))
			if u != VertexID(v) {
				bld.AddEdge(VertexID(v), u)
			}
		}
	}
	return bld.Build()
}

// BenchmarkBuildCSR times Builder.Build over two inputs: directed edges
// between random endpoints (every degree near 8), and the undirected,
// deduped power-law shape of the DeepWalk workloads (degrees 4..2000 with
// exponent 2, paired configuration-model style), whose hubs are where a
// per-vertex comparison sort used to cost the most.
func BenchmarkBuildCSR(b *testing.B) {
	r := rng.New(1)
	const n, m = 10000, 80000
	srcs := make([]VertexID, m)
	dsts := make([]VertexID, m)
	for i := range srcs {
		srcs[i] = VertexID(r.Intn(n))
		dsts[i] = VertexID(r.Intn(n))
	}
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld := NewBuilder(n)
			for j := range srcs {
				bld.AddEdge(srcs[j], dsts[j])
			}
			_ = bld.Build()
		}
	})

	const pn = 50000
	var stubs []VertexID
	for v := 0; v < pn; v++ {
		for d := r.PowerLaw(4, 2000, 2.0); d > 0; d-- {
			stubs = append(stubs, VertexID(v))
		}
	}
	perm := r.Perm(len(stubs))
	b.Run("powerlaw", func(b *testing.B) {
		var edges int64
		for i := 0; i < b.N; i++ {
			bld := NewBuilder(pn).SetUndirected(true).SetDedup(true).Grow(len(perm) / 2)
			for j := 0; j+1 < len(perm); j += 2 {
				if u, v := stubs[perm[j]], stubs[perm[j+1]]; u != v {
					bld.AddEdge(u, v)
				}
			}
			edges = bld.Build().NumEdges()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*edges), "ns/edge")
	})
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 10000, 50)
	r := rng.New(2)
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = g.HasEdge(VertexID(r.Intn(10000)), VertexID(r.Intn(10000)))
	}
	_ = sink
}

func BenchmarkDegreeStats(b *testing.B) {
	g := benchGraph(b, 10000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Stats()
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(b, 10000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ConnectedComponents(g)
	}
}
