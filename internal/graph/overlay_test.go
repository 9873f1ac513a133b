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
	g, err := Derive(base, verts, segmentsOf(offs, dst, weight, etype))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	return base, g
}

// segmentsOf splits CSR-style overlay arrays into one Segment per vertex:
// segment i is dst[offs[i]:offs[i+1]] with its parallel weight and type
// slices (nil where the array is nil).
func segmentsOf(offs []int64, dst []VertexID, weight []float32, etype []int32) []Segment {
	segs := make([]Segment, len(offs)-1)
	for i := range segs {
		lo, hi := offs[i], offs[i+1]
		segs[i].Dst = dst[lo:hi]
		if weight != nil {
			segs[i].Weight = weight[lo:hi]
		}
		if etype != nil {
			segs[i].Type = etype[lo:hi]
		}
	}
	return segs
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
	empty := Segment{Dst: []VertexID{}, Weight: []float32{}, Type: []int32{}}

	cases := []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"nil base", func() (*Graph, error) {
			return Derive(nil, nil, nil)
		}},
		{"segment count", func() (*Graph, error) {
			return Derive(base, []VertexID{1}, nil)
		}},
		{"missing weights", func() (*Graph, error) {
			return Derive(base, []VertexID{1}, []Segment{{Dst: []VertexID{2}, Type: []int32{0}}})
		}},
		{"missing types", func() (*Graph, error) {
			return Derive(base, []VertexID{1}, []Segment{{Dst: []VertexID{2}, Weight: []float32{1}}})
		}},
		{"weights on unweighted base", func() (*Graph, error) {
			return Derive(unweighted, []VertexID{0}, []Segment{{Dst: []VertexID{1}, Weight: []float32{1}}})
		}},
		{"vertex out of range", func() (*Graph, error) {
			return Derive(base, []VertexID{9}, []Segment{empty})
		}},
		{"not strictly increasing", func() (*Graph, error) {
			return Derive(base, []VertexID{3, 1}, []Segment{empty, empty})
		}},
		{"segment not sorted", func() (*Graph, error) {
			return Derive(base, []VertexID{1}, []Segment{{Dst: []VertexID{3, 2}, Weight: []float32{1, 1}, Type: []int32{0, 0}}})
		}},
		{"dst out of range", func() (*Graph, error) {
			return Derive(base, []VertexID{1}, []Segment{{Dst: []VertexID{99}, Weight: []float32{1}, Type: []int32{0}}})
		}},
		{"partition-local base", func() (*Graph, error) {
			return Derive(Subgraph(base, 0, 2), []VertexID{1}, []Segment{empty})
		}},
		{"invalid segment over an overlay", func() (*Graph, error) {
			_, over := overlayFixture(t)
			return Derive(over, []VertexID{3}, []Segment{{Dst: []VertexID{7}, Weight: []float32{1}, Type: []int32{0}}})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s: Derive accepted invalid input", tc.name)
		}
	}
}

// TestDeriveSharesUntouchedPages: deriving from an overlay keeps one
// level over the same base, leaves the earlier view as it was, and
// shares every page the new segments do not land on.
func TestDeriveSharesUntouchedPages(t *testing.T) {
	base, over := overlayFixture(t)
	before := Fingerprint(over)
	next, err := Derive(over, []VertexID{3}, []Segment{{Dst: []VertexID{}, Weight: []float32{}, Type: []int32{}}})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if Fingerprint(over) != before || over.Degree(3) != 1 {
		t.Fatal("Derive changed the view it derived from")
	}
	if &next.offsets[0] != &base.offsets[0] || next.Degree(3) != 0 || next.Degree(1) != 3 {
		t.Fatal("derived view does not layer the new segment over the shared base")
	}
	if nv, delta := next.OverlayStats(); nv != 2 || delta != 2 {
		t.Fatalf("OverlayStats = (%d, %d), want (2, 2)", nv, delta)
	}

	const n = 4 * PageSize
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(VertexID(v), VertexID((v+1)%n))
	}
	seg := func(d VertexID) []Segment { return []Segment{{Dst: []VertexID{d}}} }
	g1, err := Derive(b.Build(), []VertexID{1}, seg(5))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Derive(g1, []VertexID{2 * PageSize}, seg(6))
	if err != nil {
		t.Fatal(err)
	}
	if g2.over.pages[0] != g1.over.pages[0] || g2.over.pages[2] == nil || g1.over.pages[2] != nil {
		t.Fatal("Derive did not share the untouched page and clone only the touched one")
	}
	if g1.Neighbors(2 * PageSize)[0] != 2*PageSize+1 || g2.Neighbors(1)[0] != 5 {
		t.Fatal("derived views do not read their own segments")
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
	g2, err := Derive(base, []VertexID{1}, []Segment{{Dst: []VertexID{2}, Weight: []float32{1.0}, Type: []int32{0}}})
	if err != nil {
		t.Fatalf("Derive: %v", err)
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
// an empty overlay — while OverlayStats counts the overlaid vertices and
// MaxWeight equals the rebuilt graph's exact maximum.
func TestOverlayPageTableEquivalence(t *testing.T) {
	const n = 136*PageSize + 5 // the last page is partial
	r := rand.New(rand.NewSource(5))
	b := NewBuilder(n).SetDedup(true)
	for i := 0; i < 4*n; i++ {
		b.AddTypedEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)), float32(1+r.Intn(8)), int32(r.Intn(3)))
	}
	base := b.Build()

	random := map[VertexID]bool{0: true, PageSize - 1: true, PageSize: true, n - 1: true}
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
		{"page-boundaries", []VertexID{0, PageSize - 1, PageSize, 3*PageSize - 1, n - 1}},
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
			over, err := Derive(base, tc.verts, segmentsOf(offs, dst, weight, etype))
			if err != nil {
				t.Fatalf("Derive: %v", err)
			}
			if nv, _ := over.OverlayStats(); nv != len(tc.verts) {
				t.Fatalf("OverlayStats counts %d vertices, want %d", nv, len(tc.verts))
			}
			if Fingerprint(over.Compacted()) != Fingerprint(rebuilt) {
				t.Fatal("Compacted() differs from the rebuilt-from-scratch graph")
			}

			for v := 0; v < n; v++ {
				id := VertexID(v)
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
	if nv, delta := base.OverlayStats(); nv != 0 || delta != 0 || base.Overlaid() {
		t.Fatal("a plain graph reports an overlay")
	}
}
