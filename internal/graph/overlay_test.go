package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// overlayFixture builds a small weighted+typed base graph and an overlay
// replacing the adjacency of vertices 1 and 3:
//
//	base:  0->{1,2}  1->{0}  2->{1,3}  3->{}  4->{0}
//	over:  1->{2,3,4}  3->{0}
func overlayFixture(t *testing.T) (base, over *Graph) {
	t.Helper()
	b := NewBuilder(5)
	b.AddTypedEdge(0, 1, 1.0, 0)
	b.AddTypedEdge(0, 2, 2.0, 1)
	b.AddTypedEdge(1, 0, 3.0, 0)
	b.AddTypedEdge(2, 1, 0.5, 2)
	b.AddTypedEdge(2, 3, 1.5, 0)
	b.AddTypedEdge(4, 0, 4.0, 1)
	base = b.Build()

	verts := []VertexID{1, 3}
	offs := []int64{0, 3, 4}
	dst := []VertexID{2, 3, 4, 0}
	weight := []float32{1.0, 2.5, 0.5, 9.0}
	etype := []int32{0, 1, 2, 0}
	g, err := NewOverlay(base, verts, offs, dst, weight, etype)
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	return base, g
}

// rebuildFixture builds from scratch the graph the overlay fixture should
// be walk-indistinguishable from.
func rebuildFixture() *Graph {
	b := NewBuilder(5)
	b.AddTypedEdge(0, 1, 1.0, 0)
	b.AddTypedEdge(0, 2, 2.0, 1)
	b.AddTypedEdge(1, 2, 1.0, 0)
	b.AddTypedEdge(1, 3, 2.5, 1)
	b.AddTypedEdge(1, 4, 0.5, 2)
	b.AddTypedEdge(2, 1, 0.5, 2)
	b.AddTypedEdge(2, 3, 1.5, 0)
	b.AddTypedEdge(3, 0, 9.0, 0)
	b.AddTypedEdge(4, 0, 4.0, 1)
	return b.Build()
}

func TestOverlayAccessorsMatchRebuilt(t *testing.T) {
	_, over := overlayFixture(t)
	want := rebuildFixture()

	if over.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", over.NumVertices(), want.NumVertices())
	}
	if over.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", over.NumEdges(), want.NumEdges())
	}
	if !over.Overlaid() {
		t.Fatal("Overlaid() = false on an overlay view")
	}
	nv, delta := over.OverlayStats()
	if nv != 2 || delta != 3 {
		t.Fatalf("OverlayStats = (%d, %d), want (2, 3)", nv, delta)
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := VertexID(v)
		if over.Degree(id) != want.Degree(id) {
			t.Fatalf("Degree(%d) = %d, want %d", v, over.Degree(id), want.Degree(id))
		}
		gotN, wantN := over.Neighbors(id), want.Neighbors(id)
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("Neighbors(%d)[%d] = %d, want %d", v, i, gotN[i], wantN[i])
			}
		}
		gotW, wantW := over.Weights(id), want.Weights(id)
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("Weights(%d)[%d] = %v, want %v", v, i, gotW[i], wantW[i])
			}
		}
		gotT, wantT := over.Types(id), want.Types(id)
		for i := range wantT {
			if gotT[i] != wantT[i] {
				t.Fatalf("Types(%d)[%d] = %d, want %d", v, i, gotT[i], wantT[i])
			}
		}
		for i := 0; i < want.Degree(id); i++ {
			if over.EdgeAt(id, i) != want.EdgeAt(id, i) {
				t.Fatalf("EdgeAt(%d,%d) = %+v, want %+v", v, i, over.EdgeAt(id, i), want.EdgeAt(id, i))
			}
			if over.EdgeWeight(id, i) != want.EdgeWeight(id, i) {
				t.Fatalf("EdgeWeight(%d,%d) differs", v, i)
			}
		}
		if over.TotalWeight(id) != want.TotalWeight(id) {
			t.Fatalf("TotalWeight(%d) = %v, want %v", v, over.TotalWeight(id), want.TotalWeight(id))
		}
		if over.MaxWeight(id) != want.MaxWeight(id) {
			t.Fatalf("MaxWeight(%d) = %v, want %v", v, over.MaxWeight(id), want.MaxWeight(id))
		}
		for u := 0; u < want.NumVertices(); u++ {
			if over.HasEdge(id, VertexID(u)) != want.HasEdge(id, VertexID(u)) {
				t.Fatalf("HasEdge(%d,%d) differs", v, u)
			}
		}
	}
	if err := over.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestOverlayValidation(t *testing.T) {
	base, _ := overlayFixture(t)
	unw := NewBuilder(3)
	unw.AddEdge(0, 1)
	unweighted := unw.Build()

	cases := []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"nil base", func() (*Graph, error) {
			return NewOverlay(nil, nil, []int64{0}, nil, nil, nil)
		}},
		{"offs length", func() (*Graph, error) {
			return NewOverlay(base, []VertexID{1}, []int64{0}, nil, nil, nil)
		}},
		{"missing weights", func() (*Graph, error) {
			return NewOverlay(base, []VertexID{1}, []int64{0, 1}, []VertexID{2}, nil, []int32{0})
		}},
		{"weights on unweighted base", func() (*Graph, error) {
			return NewOverlay(unweighted, []VertexID{0}, []int64{0, 1}, []VertexID{1}, []float32{1}, nil)
		}},
		{"vertex out of range", func() (*Graph, error) {
			return NewOverlay(base, []VertexID{9}, []int64{0, 0}, nil, []float32{}, []int32{})
		}},
		{"not strictly increasing", func() (*Graph, error) {
			return NewOverlay(base, []VertexID{3, 1}, []int64{0, 0, 0}, nil, []float32{}, []int32{})
		}},
		{"segment not sorted", func() (*Graph, error) {
			return NewOverlay(base, []VertexID{1}, []int64{0, 2}, []VertexID{3, 2},
				[]float32{1, 1}, []int32{0, 0})
		}},
		{"dst out of range", func() (*Graph, error) {
			return NewOverlay(base, []VertexID{1}, []int64{0, 1}, []VertexID{99},
				[]float32{1}, []int32{0})
		}},
		{"stacked overlay", func() (*Graph, error) {
			_, over := overlayFixture(t)
			return NewOverlay(over, []VertexID{1}, []int64{0, 0}, nil, []float32{}, []int32{})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s: NewOverlay accepted invalid input", tc.name)
		}
	}
}

func TestOverlayCompactedEquivalence(t *testing.T) {
	_, over := overlayFixture(t)
	want := rebuildFixture()
	got := over.Compacted()
	if got.Overlaid() {
		t.Fatal("Compacted() still overlaid")
	}
	if Fingerprint(got) != Fingerprint(want) {
		t.Fatal("Compacted() fingerprint differs from the rebuilt-from-scratch graph")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Plain graphs compact to themselves, no copy.
	if want.Compacted() != want {
		t.Fatal("Compacted() of a plain graph should return it unchanged")
	}
}

func TestOverlayFingerprint(t *testing.T) {
	base, over := overlayFixture(t)
	// The overlay section only appends when present: the base keeps the
	// delta-free hash.
	if Fingerprint(base) == Fingerprint(over) {
		t.Fatal("overlay view fingerprints identically to its base")
	}
	// Distinct overlay contents hash distinctly.
	g2, err := NewOverlay(base, []VertexID{1}, []int64{0, 1}, []VertexID{2},
		[]float32{1.0}, []int32{0})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	if Fingerprint(g2) == Fingerprint(over) {
		t.Fatal("different overlays fingerprint identically")
	}
}

func TestOverlaySerializationGuards(t *testing.T) {
	_, over := overlayFixture(t)
	if err := WriteBinary(&bytes.Buffer{}, over); err == nil {
		t.Fatal("WriteBinary accepted an overlay view")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Subgraph accepted an overlay view")
		}
	}()
	Subgraph(over, 0, 2)
}

// TestOverlayPageTableEquivalence: the page-table lookup resolves every
// vertex exactly as a graph rebuilt from scratch does — across page
// boundaries, on a |V| that is not a multiple of the page size, and for
// an empty overlay — and OverlayIndex reports the overlay slot, while
// MaxWeight equals the rebuilt graph's exact maximum.
func TestOverlayPageTableEquivalence(t *testing.T) {
	const n = 2*(overlayPageMask+1) + 517 // the last page is partial
	r := rand.New(rand.NewSource(5))
	b := NewBuilder(n).SetDedup(true)
	for i := 0; i < 4*n; i++ {
		b.AddTypedEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)), float32(1+r.Intn(8)), int32(r.Intn(3)))
	}
	base := b.Build()

	random := map[VertexID]bool{0: true, 4095: true, 4096: true, n - 1: true}
	for len(random) < 300 {
		random[VertexID(r.Intn(n))] = true
	}
	randomVerts := make([]VertexID, 0, len(random))
	for v := range random {
		randomVerts = append(randomVerts, v)
	}
	slices.Sort(randomVerts)

	for _, tc := range []struct {
		name  string
		verts []VertexID
	}{
		{"empty", []VertexID{}},
		{"page-boundaries", []VertexID{0, 4095, 4096, n - 1}},
		{"random", randomVerts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Segments of degree 0..6 with distinct sorted destinations.
			offs := []int64{0}
			dst, weight, etype := []VertexID{}, []float32{}, []int32{}
			slot := make(map[VertexID]int, len(tc.verts))
			want := NewBuilder(n)
			for i, v := range tc.verts {
				slot[v] = i
				seg := map[VertexID]bool{}
				for k := r.Intn(7); len(seg) < k; {
					seg[VertexID(r.Intn(n))] = true
				}
				ds := make([]VertexID, 0, len(seg))
				for d := range seg {
					ds = append(ds, d)
				}
				slices.Sort(ds)
				for _, d := range ds {
					w, ty := float32(1+r.Intn(20)), int32(r.Intn(3))
					dst, weight, etype = append(dst, d), append(weight, w), append(etype, ty)
					want.AddTypedEdge(v, d, w, ty)
				}
				offs = append(offs, int64(len(dst)))
			}
			for v := 0; v < n; v++ {
				if _, ok := slot[VertexID(v)]; ok {
					continue
				}
				for i := 0; i < base.Degree(VertexID(v)); i++ {
					e := base.EdgeAt(VertexID(v), i)
					want.AddTypedEdge(VertexID(v), e.Dst, e.Weight, e.Type)
				}
			}
			rebuilt := want.Build()
			over, err := NewOverlay(base, tc.verts, offs, dst, weight, etype)
			if err != nil {
				t.Fatalf("NewOverlay: %v", err)
			}
			if Fingerprint(over.Compacted()) != Fingerprint(rebuilt) {
				t.Fatal("Compacted() differs from the rebuilt-from-scratch graph")
			}

			for v := 0; v < n; v++ {
				id := VertexID(v)
				i, overlaid := slot[id]
				if !overlaid {
					i = -1
				}
				if got := over.OverlayIndex(id); got != i {
					t.Fatalf("OverlayIndex(%d) = %d, want %d", v, got, i)
				}
				deg := rebuilt.Degree(id)
				if over.Degree(id) != deg ||
					!slices.Equal(over.Neighbors(id), rebuilt.Neighbors(id)) ||
					!slices.Equal(over.Weights(id), rebuilt.Weights(id)) ||
					!slices.Equal(over.Types(id), rebuilt.Types(id)) {
					t.Fatalf("vertex %d: adjacency differs from the rebuilt graph", v)
				}
				for k := 0; k < deg; k++ {
					if over.EdgeAt(id, k) != rebuilt.EdgeAt(id, k) || over.EdgeWeight(id, k) != rebuilt.EdgeWeight(id, k) {
						t.Fatalf("vertex %d: edge %d differs from the rebuilt graph", v, k)
					}
				}
				for _, u := range append(rebuilt.Neighbors(id)[:deg:deg], VertexID(r.Intn(n)), VertexID(r.Intn(n))) {
					if over.HasEdge(id, u) != rebuilt.HasEdge(id, u) {
						t.Fatalf("HasEdge(%d,%d) differs from the rebuilt graph", v, u)
					}
				}
				if got, wantMax := over.MaxWeight(id), rebuilt.MaxWeight(id); got != wantMax {
					t.Fatalf("MaxWeight(%d) = %v, want %v", v, got, wantMax)
				}
			}
		})
	}
	if got := base.OverlayIndex(7); got != -1 {
		t.Fatalf("OverlayIndex on a plain graph = %d, want -1", got)
	}
}
