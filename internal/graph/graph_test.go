package graph

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"knightking/internal/parallel"
	"knightking/internal/rng"
)

// triangle builds the directed triangle 0->1->2->0.
func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := NewBuilder(5).Build()
	for v := 0; v < 5; v++ {
		if g.Degree(VertexID(v)) != 0 {
			t.Fatalf("vertex %d has degree %d, want 0", v, g.Degree(VertexID(v)))
		}
		if len(g.Neighbors(VertexID(v))) != 0 {
			t.Fatalf("vertex %d has neighbors", v)
		}
	}
}

func TestTriangleBasics(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	for v := 0; v < 3; v++ {
		if g.Degree(VertexID(v)) != 1 {
			t.Fatalf("degree of %d = %d", v, g.Degree(VertexID(v)))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Fatal("missing expected edge")
	}
	if g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("unexpected reverse edge in directed graph")
	}
}

func TestUndirectedDoubling(t *testing.T) {
	b := NewBuilder(4).SetUndirected(true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	for _, pair := range [][2]VertexID{{0, 1}, {1, 2}, {2, 3}} {
		if !g.HasEdge(pair[0], pair[1]) || !g.HasEdge(pair[1], pair[0]) {
			t.Fatalf("edge %v not doubled", pair)
		}
	}
}

func TestUndirectedSelfLoopStoredOnce(t *testing.T) {
	b := NewBuilder(2).SetUndirected(true)
	b.AddEdge(0, 0)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("self loop stored %d times, want 1", g.NumEdges())
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(10)
	for _, d := range []VertexID{7, 3, 9, 1, 5, 2} {
		b.AddEdge(0, d)
	}
	g := b.Build()
	adj := g.Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] > adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

func TestWeightsFollowSort(t *testing.T) {
	b := NewBuilder(10)
	// weight encodes destination so we can verify the permutation.
	for _, d := range []VertexID{7, 3, 9, 1} {
		b.AddWeightedEdge(0, d, float32(d)*10)
	}
	g := b.Build()
	adj, ws := g.Neighbors(0), g.Weights(0)
	for i := range adj {
		if ws[i] != float32(adj[i])*10 {
			t.Fatalf("weight %v does not match destination %d after sort", ws[i], adj[i])
		}
	}
}

func TestTypesFollowSort(t *testing.T) {
	b := NewBuilder(10)
	for _, d := range []VertexID{8, 2, 5} {
		b.AddTypedEdge(0, d, 1, int32(d))
	}
	g := b.Build()
	adj, ts := g.Neighbors(0), g.Types(0)
	for i := range adj {
		if ts[i] != int32(adj[i]) {
			t.Fatalf("type %d does not match destination %d after sort", ts[i], adj[i])
		}
	}
}

func TestEdgeAtDefaults(t *testing.T) {
	g := triangle(t)
	e := g.EdgeAt(0, 0)
	if e.Dst != 1 || e.Weight != 1 || e.Type != 0 {
		t.Fatalf("EdgeAt defaults wrong: %+v", e)
	}
	if g.EdgeWeight(0, 0) != 1 {
		t.Fatal("EdgeWeight default wrong")
	}
}

func TestTotalAndMaxWeight(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(0, 2, 3.5)
	g := b.Build()
	if got := g.TotalWeight(0); got != 5.5 {
		t.Fatalf("TotalWeight = %v", got)
	}
	if got := g.MaxWeight(0); got != 3.5 {
		t.Fatalf("MaxWeight = %v", got)
	}
	if got := g.MaxWeight(1); got != 0 {
		t.Fatalf("MaxWeight of sink = %v, want 0", got)
	}
	ug := triangle(t)
	if got := ug.TotalWeight(0); got != 1 {
		t.Fatalf("unweighted TotalWeight = %v, want degree", got)
	}
	if got := ug.MaxWeight(0); got != 1 {
		t.Fatalf("unweighted MaxWeight = %v, want 1", got)
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder(4)
	// degrees: 3, 1, 0, 0 -> mean 1, var E[d^2]-1 = (9+1)/4 - 1 = 1.5
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 0)
	g := b.Build()
	s := g.Stats()
	if s.Mean != 1 || s.Max != 3 || s.Min != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Variance < 1.49 || s.Variance > 1.51 {
		t.Fatalf("variance = %v, want 1.5", s.Variance)
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.Reset()
	g := b.Build()
	if g.NumEdges() != 0 {
		t.Fatalf("reset builder produced %d edges", g.NumEdges())
	}
}

func TestParallelEdgesKept(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.Degree(0) != 2 {
		t.Fatalf("parallel edges collapsed: degree = %d", g.Degree(0))
	}

	// Weighted parallel edges keep their insertion order, also at a vertex
	// of degree well above 12 (where a per-vertex sort.Sort stops being an
	// insertion sort) and when the group is inserted interleaved with the
	// vertex's other edges.
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		const n, par = 64, 6
		b := NewBuilder(n)
		var want []float32
		for i, d := range r.Perm(n) {
			b.AddWeightedEdge(0, VertexID(d), float32(1000+i))
			if i%8 == 0 && len(want) < par {
				w := float32(len(want) + 1)
				want = append(want, w)
				b.AddWeightedEdge(0, 7, w)
			}
		}
		g := b.Build()
		adj, ws := g.Neighbors(0), g.Weights(0)
		lo, _ := slices.BinarySearch(adj, 7)
		var got []float32
		for i := lo; i < len(adj) && adj[i] == 7; i++ {
			got = append(got, ws[i])
		}
		// The permutation's own 0->7 edge sits at its insertion place.
		got = slices.DeleteFunc(got, func(w float32) bool { return w >= 1000 })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: parallel 0->7 weights %v, want insertion order %v", trial, got, want)
		}
	}
}

// TestDedupKeepsFirstOccurrence: with dedup, the edge kept of each
// parallel group is the first inserted one, weight and type included, at
// vertices of every degree.
func TestDedupKeepsFirstOccurrence(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(100)
		b := NewBuilder(n).SetDedup(true)
		first := make(map[[2]VertexID]Edge)
		for i := 0; i < 4*n; i++ {
			s, d := VertexID(r.Intn(3)), VertexID(r.Intn(n))
			e := Edge{Dst: d, Weight: float32(i + 1), Type: int32(i)}
			b.AddTypedEdge(s, d, e.Weight, e.Type)
			if _, ok := first[[2]VertexID{s, d}]; !ok {
				first[[2]VertexID{s, d}] = e
			}
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		kept := 0
		for s := VertexID(0); s < 3; s++ {
			for i := 0; i < g.Degree(s); i++ {
				e := g.EdgeAt(s, i)
				if want := first[[2]VertexID{s, e.Dst}]; e != want {
					t.Fatalf("trial %d: kept %d->%d as %+v, want the first inserted %+v", trial, s, e.Dst, e, want)
				}
				kept++
			}
		}
		if kept != len(first) {
			t.Fatalf("trial %d: kept %d edges, want %d distinct pairs", trial, kept, len(first))
		}
	}
}

// TestRelabel: Relabel gives every stored edge the weight and type f
// returns, in adjacency order, over the original offsets and
// destinations, as rebuilding the edges through a Builder would.
func TestRelabel(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range [][3]int{{0, 3, 2}, {0, 1, 5}, {0, 3, 7}, {2, 4, 1}, {4, 0, 3}, {4, 4, 9}} {
		b.AddTypedEdge(VertexID(e[0]), VertexID(e[1]), float32(e[2]), int32(e[2]%3))
	}
	g := b.Build()
	f := func(src VertexID, e Edge) (float32, int32) {
		return e.Weight*10 + float32(src), e.Type + int32(e.Dst)
	}
	for _, typed := range []bool{false, true} {
		want := NewBuilder(5)
		for v := VertexID(0); v < 5; v++ {
			for i := 0; i < g.Degree(v); i++ {
				w, typ := f(v, g.EdgeAt(v, i))
				if typed {
					want.AddTypedEdge(v, g.EdgeAt(v, i).Dst, w, typ)
				} else {
					want.AddWeightedEdge(v, g.EdgeAt(v, i).Dst, w)
				}
			}
		}
		got := g.Relabel(typed, f)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if Fingerprint(got) != Fingerprint(want.Build()) || got.Typed() != typed {
			t.Fatalf("typed=%v: Relabel differs from rebuilding the relabelled edges", typed)
		}
	}
	// Unweighted, untyped input: f sees weight 1 and type 0.
	u := NewBuilder(2)
	u.AddEdge(0, 1)
	got := u.Build().Relabel(false, func(_ VertexID, e Edge) (float32, int32) { return e.Weight + 1, e.Type })
	if e := got.EdgeAt(0, 0); e != (Edge{Dst: 1, Weight: 2}) {
		t.Fatalf("relabelled unweighted edge = %+v, want weight 2", e)
	}
}

func TestHasEdgeQuick(t *testing.T) {
	// Property: HasEdge agrees with a linear scan, on random graphs.
	r := rng.New(1)
	build := func() (*Graph, [][2]VertexID) {
		const n = 50
		b := NewBuilder(n)
		var present [][2]VertexID
		for i := 0; i < 200; i++ {
			s, d := VertexID(r.Intn(n)), VertexID(r.Intn(n))
			b.AddEdge(s, d)
			present = append(present, [2]VertexID{s, d})
		}
		return b.Build(), present
	}
	g, present := build()
	for _, p := range present {
		if !g.HasEdge(p[0], p[1]) {
			t.Fatalf("HasEdge(%d,%d) = false for inserted edge", p[0], p[1])
		}
	}
	f := func(s, d uint32) bool {
		s, d = s%50, d%50
		linear := false
		for _, nb := range g.Neighbors(s) {
			if nb == d {
				linear = true
				break
			}
		}
		return g.HasEdge(s, d) == linear
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListBasic(t *testing.T) {
	in := "# comment\n0 1\n1 2\n% another comment\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Weighted() || g.Typed() {
		t.Fatal("plain edge list should be unweighted and untyped")
	}
}

func TestReadEdgeListWeightedTyped(t *testing.T) {
	in := "0 1 2.5 3\n1 0 1.5 1\n"
	g, err := ReadEdgeList(strings.NewReader(in), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || !g.Typed() {
		t.Fatal("weighted/typed flags not set")
	}
	e := g.EdgeAt(0, 0)
	if e.Weight != 2.5 || e.Type != 3 {
		t.Fatalf("edge = %+v", e)
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("|E|=%d, want 2", g.NumEdges())
	}
}

func TestReadEdgeListMinVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), false, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("|V|=%d, want 10", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 b\n", "0 1 x\n", "0 1 1.0 x\n"}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), false, 0); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.AddTypedEdge(0, 3, 2.5, 1)
	b.AddTypedEdge(3, 4, 1.25, 2)
	b.AddTypedEdge(4, 0, 0.5, 3)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rng.New(2)
	b := NewBuilder(100)
	for i := 0; i < 500; i++ {
		b.AddTypedEdge(VertexID(r.Intn(100)), VertexID(r.Intn(100)), float32(r.Range(1, 5)), int32(r.Intn(4)))
	}
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTripUnweighted(t *testing.T) {
	g := triangle(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weighted() || g2.Typed() {
		t.Fatal("round trip invented weights or types")
	}
	assertGraphsEqual(t, g, g2)
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		id := VertexID(v)
		if a.Degree(id) != b.Degree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := 0; i < a.Degree(id); i++ {
			ea, eb := a.EdgeAt(id, i), b.EdgeAt(id, i)
			if ea != eb {
				t.Fatalf("edge mismatch at %d[%d]: %+v vs %+v", v, i, ea, eb)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle(t)
	g.dst[0] = 99 // out of range
	if err := g.Validate(); err == nil {
		t.Fatal("corrupted graph validated")
	}
}

// TestRelabelPanicReachesCaller: Relabel runs f on several goroutines,
// and a panic in f on the last of them, away from the caller's, is
// raised again on the caller with its value.
func TestRelabelPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := randomGraph(5, 20000, 1<<17, false, false)
	if k := parallel.Workers(len(g.dst)); k < 2 {
		t.Fatalf("Relabel would run on %d goroutine, want several", k)
	}
	last := VertexID(g.NumVertices() - 1)
	for g.Degree(last) == 0 {
		last--
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		g.Relabel(false, func(src VertexID, e Edge) (float32, int32) {
			if src == last {
				panic("bad edge at the last vertex")
			}
			return 1, 0
		})
		return nil
	}()
	if got != "bad edge at the last vertex" {
		t.Fatalf("recovered %v, want the callback's panic", got)
	}
}
