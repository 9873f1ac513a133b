// Package graph provides the compressed-sparse-row (CSR) graph storage used
// by the engine, mirroring KnightKing's storage design (§6.1 of the paper):
// edges are stored with their source vertex, undirected edges are stored
// twice (once per direction), and per-vertex adjacency is kept sorted by
// destination so walker-to-vertex neighborhood queries resolve with a binary
// search.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. Graphs in the paper's evaluation reach 134M
// vertices, well inside uint32.
type VertexID = uint32

// Edge is a single out-edge as seen from its source vertex.
type Edge struct {
	Dst    VertexID
	Weight float32
	Type   int32
}

// Graph is an immutable CSR graph. Construct one with a Builder, a loader,
// or a generator. Weight and Type arrays are nil for unweighted/untyped
// graphs; accessors hide that distinction.
type Graph struct {
	offsets []int64 // len NumVertices()+1
	dst     []VertexID
	weight  []float32 // nil if unweighted
	etype   []int32   // nil if untyped

	// partial marks a partition-local slice holding only the adjacency of
	// [ownedLo, ownedHi); see Subgraph and ReadBinarySlice.
	partial          bool
	ownedLo, ownedHi VertexID

	// over, when non-nil, layers per-vertex replacement adjacency over the
	// base arrays (a dynamic-graph epoch view; see overlay.go). Accessors
	// resolve overlay vertices to their segment and everything else to the
	// base arrays. Mutually exclusive with partial.
	over *overlayData
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of stored directed edges (an undirected input
// edge counts twice).
func (g *Graph) NumEdges() int64 {
	ne := g.offsets[len(g.offsets)-1]
	if g.over != nil {
		ne += g.over.edgeDelta
	}
	return ne
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weight != nil }

// Typed reports whether the graph carries edge types.
func (g *Graph) Typed() bool { return g.etype != nil }

// Degree returns the out-degree of v.
//
//kk:hotpath
func (g *Graph) Degree(v VertexID) int {
	g.checkOwned(v)
	if g.over != nil {
		if s := g.over.seg(v); s != nil {
			return len(s.Dst)
		}
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the destination slice for v's out-edges, sorted by
// destination ID. The slice aliases internal storage and must not be
// modified.
//
//kk:hotpath
func (g *Graph) Neighbors(v VertexID) []VertexID {
	g.checkOwned(v)
	if g.over != nil {
		if s := g.over.seg(v); s != nil {
			return s.Dst
		}
	}
	return g.dst[g.offsets[v]:g.offsets[v+1]]
}

// Weights returns the weight slice for v's out-edges, parallel to
// Neighbors(v), or nil for an unweighted graph.
//
//kk:hotpath
func (g *Graph) Weights(v VertexID) []float32 {
	g.checkOwned(v)
	if g.weight == nil {
		return nil
	}
	if g.over != nil {
		if s := g.over.seg(v); s != nil {
			return s.Weight
		}
	}
	return g.weight[g.offsets[v]:g.offsets[v+1]]
}

// Types returns the edge-type slice for v's out-edges, parallel to
// Neighbors(v), or nil for an untyped graph.
//
//kk:hotpath
func (g *Graph) Types(v VertexID) []int32 {
	g.checkOwned(v)
	if g.etype == nil {
		return nil
	}
	if g.over != nil {
		if s := g.over.seg(v); s != nil {
			return s.Type
		}
	}
	return g.etype[g.offsets[v]:g.offsets[v+1]]
}

// EdgeAt returns v's i-th out-edge. Unweighted graphs report weight 1,
// untyped graphs report type 0.
//
//kk:hotpath
func (g *Graph) EdgeAt(v VertexID, i int) Edge {
	g.checkOwned(v)
	if g.over != nil {
		if s := g.over.seg(v); s != nil {
			e := Edge{Dst: s.Dst[i], Weight: 1}
			if s.Weight != nil {
				e.Weight = s.Weight[i]
			}
			if s.Type != nil {
				e.Type = s.Type[i]
			}
			return e
		}
	}
	idx := g.offsets[v] + int64(i)
	e := Edge{Dst: g.dst[idx], Weight: 1}
	if g.weight != nil {
		e.Weight = g.weight[idx]
	}
	if g.etype != nil {
		e.Type = g.etype[idx]
	}
	return e
}

// EdgeWeight returns the weight of v's i-th out-edge (1 if unweighted).
//
//kk:hotpath
func (g *Graph) EdgeWeight(v VertexID, i int) float32 {
	g.checkOwned(v)
	if g.weight == nil {
		return 1
	}
	if g.over != nil {
		if s := g.over.seg(v); s != nil {
			return s.Weight[i]
		}
	}
	return g.weight[g.offsets[v]+int64(i)]
}

// HasEdge reports whether the directed edge u->v exists, by binary search
// over u's sorted adjacency. This is the primitive behind the engine's
// neighborhood state queries (node2vec's d_tx test).
//
//kk:hotpath
func (g *Graph) HasEdge(u, v VertexID) bool {
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// TotalWeight returns the sum of edge weights at v (the degree for an
// unweighted graph). It is the normalizer ΣPs for static sampling.
func (g *Graph) TotalWeight(v VertexID) float64 {
	if g.weight == nil {
		return float64(g.Degree(v))
	}
	sum := 0.0
	for _, w := range g.Weights(v) {
		sum += float64(w)
	}
	return sum
}

// MaxWeight returns the maximum edge weight at v (1 if unweighted, 0 if v
// has no out-edges), scanning v's live weights — its overlay segment on
// an epoch view — so it is exact on every graph. The rejection set-up
// hooks (Q(v), outlier widths) are its callers; they already pay O(degree)
// per vertex.
//
//kk:hotpath
func (g *Graph) MaxWeight(v VertexID) float64 {
	if g.Degree(v) == 0 {
		return 0
	}
	if g.weight == nil {
		return 1
	}
	m := float32(0)
	for _, w := range g.Weights(v) {
		if w > m {
			m = w
		}
	}
	return float64(m)
}

// DegreeStats summarizes the degree distribution; the paper reports mean
// and variance (Tables 1 and 2) as the predictors of full-scan sampling
// cost.
type DegreeStats struct {
	Mean     float64
	Variance float64
	Max      int
	Min      int
}

// Stats computes degree statistics over all vertices.
func (g *Graph) Stats() DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	sum, sumSq := 0.0, 0.0
	maxD, minD := 0, int(^uint(0)>>1)
	for v := 0; v < n; v++ {
		d := g.Degree(VertexID(v))
		sum += float64(d)
		sumSq += float64(d) * float64(d)
		if d > maxD {
			maxD = d
		}
		if d < minD {
			minD = d
		}
	}
	mean := sum / float64(n)
	return DegreeStats{
		Mean:     mean,
		Variance: sumSq/float64(n) - mean*mean,
		Max:      maxD,
		Min:      minD,
	}
}

// Validate checks structural invariants (monotone offsets, in-range
// destinations, sorted adjacency) and returns a descriptive error on the
// first violation. Loaders call it; tests use it as a property check.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count")
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	lo, hi := g.OwnedRange()
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		if g.offsets[v+1] < 0 || g.offsets[v+1] > int64(len(g.dst)) {
			return fmt.Errorf("graph: offset %d of vertex %d outside edge array (len %d)",
				g.offsets[v+1], v, len(g.dst))
		}
		if VertexID(v) < lo || VertexID(v) >= hi {
			if g.offsets[v+1] != g.offsets[v] {
				return fmt.Errorf("graph: unowned vertex %d has edges in a partial graph", v)
			}
			continue
		}
		adj := g.Neighbors(VertexID(v))
		for i, d := range adj {
			if int(d) >= n {
				return fmt.Errorf("graph: edge %d->%d out of range (|V|=%d)", v, d, n)
			}
			if i > 0 && adj[i-1] > d {
				return fmt.Errorf("graph: adjacency of %d not sorted", v)
			}
		}
	}
	// The base dst array must match the base offsets; an overlay adjusts
	// NumEdges by its delta, so compare against the raw offsets end.
	if !g.partial && int64(len(g.dst)) != g.offsets[n] {
		return fmt.Errorf("graph: dst length %d != edge count %d", len(g.dst), g.offsets[n])
	}
	if g.weight != nil && len(g.weight) != len(g.dst) {
		return fmt.Errorf("graph: weight length %d != dst length %d", len(g.weight), len(g.dst))
	}
	if g.etype != nil && len(g.etype) != len(g.dst) {
		return fmt.Errorf("graph: type length %d != dst length %d", len(g.etype), len(g.dst))
	}
	return nil
}

// Builder accumulates edges and produces an immutable CSR Graph. It is not
// safe for concurrent use.
type Builder struct {
	numVertices int
	srcs        []VertexID
	edges       []Edge
	weighted    bool
	typed       bool
	undirected  bool
	dedup       bool
}

// NewBuilder creates a builder for a graph with the given vertex count.
func NewBuilder(numVertices int) *Builder {
	if numVertices < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{numVertices: numVertices}
}

// SetUndirected makes AddEdge insert both directions, matching the paper's
// storage of undirected edges twice.
func (b *Builder) SetUndirected(u bool) *Builder {
	b.undirected = u
	return b
}

// SetDedup removes parallel edges (same source and destination) at Build
// time, keeping the first occurrence. Second-order algorithms that declare
// a single "return edge" outlier require simple adjacency, so the
// generators enable this.
func (b *Builder) SetDedup(d bool) *Builder {
	b.dedup = d
	return b
}

// AddEdge records the edge src->dst with weight 1 and type 0.
func (b *Builder) AddEdge(src, dst VertexID) {
	b.add(src, Edge{Dst: dst, Weight: 1})
}

// AddWeightedEdge records src->dst with the given weight.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float32) {
	b.weighted = true
	b.add(src, Edge{Dst: dst, Weight: w})
}

// AddTypedEdge records src->dst with the given weight and edge type.
func (b *Builder) AddTypedEdge(src, dst VertexID, w float32, typ int32) {
	b.weighted = true
	b.typed = true
	b.add(src, Edge{Dst: dst, Weight: w, Type: typ})
}

func (b *Builder) add(src VertexID, e Edge) {
	if int(src) >= b.numVertices || int(e.Dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge %d->%d out of range (|V|=%d)", src, e.Dst, b.numVertices))
	}
	b.srcs = append(b.srcs, src)
	b.edges = append(b.edges, e)
	if b.undirected && src != e.Dst {
		b.srcs = append(b.srcs, e.Dst)
		rev := e
		rev.Dst = src
		b.edges = append(b.edges, rev)
	}
}

// NumEdgesAdded returns the number of directed edges recorded so far.
func (b *Builder) NumEdgesAdded() int { return len(b.srcs) }

// Build produces the CSR graph. The builder can be reused afterwards but
// retains its edges; call Reset to clear.
func (b *Builder) Build() *Graph {
	n := b.numVertices
	offsets := make([]int64, n+1)
	for _, s := range b.srcs {
		offsets[s+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	m := len(b.srcs)
	dst := make([]VertexID, m)
	var weight []float32
	var etype []int32
	if b.weighted {
		weight = make([]float32, m)
	}
	if b.typed {
		etype = make([]int32, m)
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i, s := range b.srcs {
		p := cursor[s]
		cursor[s]++
		dst[p] = b.edges[i].Dst
		if weight != nil {
			weight[p] = b.edges[i].Weight
		}
		if etype != nil {
			etype[p] = b.edges[i].Type
		}
	}
	g := &Graph{offsets: offsets, dst: dst, weight: weight, etype: etype}
	g.sortAdjacency()
	if b.dedup {
		g = g.dedupAdjacency()
	}
	return g
}

// dedupAdjacency rebuilds the CSR arrays keeping only the first of each run
// of equal destinations within a vertex's (sorted) adjacency.
func (g *Graph) dedupAdjacency() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	dst := make([]VertexID, 0, len(g.dst))
	var weight []float32
	var etype []int32
	if g.weight != nil {
		weight = make([]float32, 0, len(g.weight))
	}
	if g.etype != nil {
		etype = make([]int32, 0, len(g.etype))
	}
	for v := 0; v < n; v++ {
		adj := g.Neighbors(VertexID(v))
		base := g.offsets[v]
		for i, d := range adj {
			if i > 0 && adj[i-1] == d {
				continue
			}
			dst = append(dst, d)
			if weight != nil {
				weight = append(weight, g.weight[base+int64(i)])
			}
			if etype != nil {
				etype = append(etype, g.etype[base+int64(i)])
			}
		}
		offsets[v+1] = int64(len(dst))
	}
	return &Graph{offsets: offsets, dst: dst, weight: weight, etype: etype}
}

// Reset clears accumulated edges, keeping the vertex count.
func (b *Builder) Reset() {
	b.srcs = b.srcs[:0]
	b.edges = b.edges[:0]
	b.weighted = false
	b.typed = false
}

// sortAdjacency sorts each vertex's out-edges by destination, permuting
// weights and types alongside.
func (g *Graph) sortAdjacency() {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		seg := adjSegment{g: g, lo: lo, n: int(hi - lo)}
		sort.Sort(seg)
	}
}

type adjSegment struct {
	g  *Graph
	lo int64
	n  int
}

func (s adjSegment) Len() int { return s.n }
func (s adjSegment) Less(i, j int) bool {
	return s.g.dst[s.lo+int64(i)] < s.g.dst[s.lo+int64(j)]
}
func (s adjSegment) Swap(i, j int) {
	a, b := s.lo+int64(i), s.lo+int64(j)
	g := s.g
	g.dst[a], g.dst[b] = g.dst[b], g.dst[a]
	if g.weight != nil {
		g.weight[a], g.weight[b] = g.weight[b], g.weight[a]
	}
	if g.etype != nil {
		g.etype[a], g.etype[b] = g.etype[b], g.etype[a]
	}
}
