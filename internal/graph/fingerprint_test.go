package graph

import (
	"math"
	"testing"

	"knightking/internal/rng"
)

func fpGraph(edges [][2]VertexID, n int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestFingerprintStableAcrossRebuilds(t *testing.T) {
	edges := [][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {0, 2}}
	a := Fingerprint(fpGraph(edges, 4))
	b := Fingerprint(fpGraph(edges, 4))
	if a != b {
		t.Fatalf("same graph fingerprints differ: %x vs %x", a, b)
	}
	// Insertion order is irrelevant: CSR adjacency is sorted at Build.
	rev := [][2]VertexID{{0, 2}, {2, 0}, {1, 2}, {0, 1}}
	if c := Fingerprint(fpGraph(rev, 4)); c != a {
		t.Fatalf("insertion order changed fingerprint: %x vs %x", c, a)
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	base := fpGraph([][2]VertexID{{0, 1}, {1, 2}}, 4)
	seen := map[uint64]string{Fingerprint(base): "base"}

	record := func(name string, g *Graph) {
		fp := Fingerprint(g)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s (%x)", name, prev, fp)
		}
		seen[fp] = name
	}

	record("extra edge", fpGraph([][2]VertexID{{0, 1}, {1, 2}, {2, 3}}, 4))
	record("different dst", fpGraph([][2]VertexID{{0, 1}, {1, 3}}, 4))
	record("extra isolated vertex", fpGraph([][2]VertexID{{0, 1}, {1, 2}}, 5))

	wb := NewBuilder(4)
	wb.AddWeightedEdge(0, 1, 1)
	wb.AddWeightedEdge(1, 2, 1)
	weighted := wb.Build()
	record("weighted (all 1s)", weighted)

	wb2 := NewBuilder(4)
	wb2.AddWeightedEdge(0, 1, 1)
	wb2.AddWeightedEdge(1, 2, 2)
	record("different weight", wb2.Build())

	tb := NewBuilder(4)
	tb.AddTypedEdge(0, 1, 1, 0)
	tb.AddTypedEdge(1, 2, 1, 0)
	record("typed (all 0s)", tb.Build())

	tb2 := NewBuilder(4)
	tb2.AddTypedEdge(0, 1, 1, 0)
	tb2.AddTypedEdge(1, 2, 1, 3)
	record("different type", tb2.Build())
}

func TestFingerprintPartialSliceDiffersFromFull(t *testing.T) {
	b := NewBuilder(6)
	for v := VertexID(0); v < 6; v++ {
		b.AddEdge(v, (v+1)%6)
	}
	full := b.Build()
	part := Subgraph(full, 0, 3)
	if Fingerprint(part) == Fingerprint(full) {
		t.Fatal("partition-local slice fingerprints like the full graph")
	}
	if Fingerprint(part) != Fingerprint(Subgraph(full, 0, 3)) {
		t.Fatal("same slice fingerprints differ")
	}
	if Fingerprint(part) == Fingerprint(Subgraph(full, 3, 6)) {
		t.Fatal("different slices collide")
	}
}

// fingerprintReference is Fingerprint as first written: every value goes
// through a closure that folds in its eight little-endian bytes one FNV-1a
// round at a time. TestFingerprintMatchesReference holds the fast path
// to it.
func fingerprintReference(g *Graph) uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= fnvPrime64
		}
	}

	mix(uint64(len(g.offsets)))
	for _, o := range g.offsets {
		mix(uint64(o))
	}
	mix(uint64(len(g.dst)))
	for _, d := range g.dst {
		mix(uint64(d))
	}
	if g.weight == nil {
		mix(0)
	} else {
		mix(1)
		mix(uint64(len(g.weight)))
		for _, w := range g.weight {
			mix(uint64(math.Float32bits(w)))
		}
	}
	if g.etype == nil {
		mix(0)
	} else {
		mix(1)
		mix(uint64(len(g.etype)))
		for _, t := range g.etype {
			mix(uint64(uint32(t)))
		}
	}
	if g.partial {
		mix(1)
		mix(uint64(g.ownedLo))
		mix(uint64(g.ownedHi))
	} else {
		mix(0)
	}
	if o := g.over; o != nil {
		mix(1)
		mix(uint64(o.verts))
		o.overlaid(func(v VertexID, s *Segment) {
			mix(uint64(v))
			mix(uint64(len(s.Dst)))
			for _, d := range s.Dst {
				mix(uint64(d))
			}
			for _, w := range s.Weight {
				mix(uint64(math.Float32bits(w)))
			}
			for _, t := range s.Type {
				mix(uint64(uint32(t)))
			}
		})
	}
	return h
}

// TestFingerprintMatchesReference checks the fast path against the
// byte-wise reference on every section the hash has: unweighted,
// weighted and typed arrays, a partition slice, overlay epochs, and raw
// arrays whose values set every byte (offsets at and past 2^32, 32-bit
// values with their top bit set, negative types).
func TestFingerprintMatchesReference(t *testing.T) {
	r := rng.New(7)
	const n = 300
	unweighted := NewBuilder(n).SetUndirected(true)
	weighted := NewBuilder(n)
	typed := NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		unweighted.AddEdge(u, v)
		weighted.AddWeightedEdge(u, v, float32(r.Float64()*100))
		typed.AddTypedEdge(u, v, float32(r.Float64()), int32(r.Intn(5))-2)
	}
	base, over := overlayFixture(t)
	over2, err := Derive(over, []VertexID{0, 4}, []Segment{
		{Dst: []VertexID{3}, Weight: []float32{0.25}, Type: []int32{-7}},
		{},
	})
	if err != nil {
		t.Fatal(err)
	}
	wide := &Graph{
		offsets: []int64{0, 1 << 32, 1<<40 + 3, 1<<62 + 1<<33 + 255, -1},
		dst:     []VertexID{0, 1, 0xff, 0x100, 0xdeadbeef, 0xffffffff},
		weight:  []float32{0, 1, float32(math.Inf(1)), -2.5, math.MaxFloat32, float32(math.NaN())},
		etype:   []int32{0, -1, math.MinInt32, math.MaxInt32, 1 << 24, 0x7f00ff00},
	}
	graphs := map[string]*Graph{
		"empty":      NewBuilder(0).Build(),
		"unweighted": unweighted.Build(),
		"weighted":   weighted.Build(),
		"typed":      typed.Build(),
		"slice":      Subgraph(typed.Build(), 100, 200),
		"base":       base,
		"overlay":    over,
		"overlay2":   over2,
		"wide":       wide,
	}
	for name, g := range graphs {
		if got, want := Fingerprint(g), fingerprintReference(g); got != want {
			t.Errorf("%s: Fingerprint = %016x, reference %016x", name, got, want)
		}
	}
}
