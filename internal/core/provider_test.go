package core

import (
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/sampling"
)

// tableProvider is a SamplerProvider over prebuilt alias rows, with
// nil holes to exercise the per-vertex fallback.
type tableProvider struct {
	tabs [][]sampling.AliasEntry
}

func (p *tableProvider) AliasRow(v graph.VertexID) []sampling.AliasEntry {
	return p.tabs[v]
}

func buildProvider(t *testing.T, g *graph.Graph, skip func(v int) bool) *tableProvider {
	t.Helper()
	p := &tableProvider{tabs: make([][]sampling.AliasEntry, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		if g.Degree(id) == 0 || (skip != nil && skip(v)) {
			continue
		}
		p.tabs[v] = make([]sampling.AliasEntry, g.Degree(id))
		if err := sampling.BuildAliasRow(p.tabs[v], g.Weights(id), g.Neighbors(id), new(sampling.AliasScratch)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestProviderMatchesLocalBuild: a run handed prebuilt edge-weight
// tables is bit-identical to one that builds them itself — including a
// provider with per-vertex holes — across multiple ranks.
func TestProviderMatchesLocalBuild(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(120, 6, 71), 1, 5, 72)
	algo := func() *Algorithm {
		return &Algorithm{Name: "wstatic", Biased: true, MaxSteps: 30}
	}
	base := Config{
		Graph: g, Algorithm: algo(), NumWalkers: 200, NumNodes: 2,
		Seed: 73, RecordPaths: true,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withProvider := base
	withProvider.Algorithm = algo()
	withProvider.Samplers = buildProvider(t, g, nil)
	got, err := Run(withProvider)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePaths(t, ref.Paths, got.Paths)

	holes := base
	holes.Algorithm = algo()
	holes.Samplers = buildProvider(t, g, func(v int) bool { return v%3 == 0 })
	got, err = Run(holes)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePaths(t, ref.Paths, got.Paths)
}

// TestProviderIgnoredWhenInapplicable: algorithms with their own static
// weights must bypass the provider entirely.
func TestProviderIgnoredWhenInapplicable(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(60, 5, 77), 1, 5, 78)

	// EdgeStaticComp overrides the static weights: tables built from the
	// raw edge weights no longer apply and must be ignored.
	algWithStatic := func() *Algorithm {
		return &Algorithm{
			Name: "meta", Biased: true, MaxSteps: 10,
			EdgeStaticComp: func(g *graph.Graph, v graph.VertexID, i int) float32 {
				if g.EdgeAt(v, i).Dst%2 == 0 {
					return 0.25
				}
				return g.EdgeWeight(v, i)
			},
		}
	}
	ref, err := Run(Config{
		Graph: g, Algorithm: algWithStatic(), NumWalkers: 100, Seed: 81, RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{
		Graph: g, Algorithm: algWithStatic(), NumWalkers: 100, Seed: 81, RecordPaths: true,
		Samplers: buildProvider(t, g, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePaths(t, ref.Paths, got.Paths)
}

// TestProviderStaleEpochPanics: tables whose item count disagrees with
// the graph's degree (a provider from a different epoch) must panic
// loudly instead of sampling garbage.
func TestProviderStaleEpochPanics(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(20, 4, 83), 1, 5, 84)
	p := &tableProvider{tabs: make([][]sampling.AliasEntry, g.NumVertices())}
	p.tabs[0] = make([]sampling.AliasEntry, 2) // wrong size for deg-4 vertices
	if err := sampling.BuildAliasRow(p.tabs[0], []float32{1, 2}, nil, new(sampling.AliasScratch)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale provider table did not panic")
		}
	}()
	_, _ = Run(Config{
		Graph: g, Algorithm: &Algorithm{Name: "a", Biased: true, MaxSteps: 5},
		NumWalkers: 10, Seed: 85, Samplers: p,
	})
}
