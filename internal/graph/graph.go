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

	"knightking/internal/parallel"
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
	srcs, dsts  []VertexID
	weights     []float32 // parallel to srcs once weighted is set
	types       []int32   // parallel to srcs once typed is set
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
	b.add(src, dst, 1, 0)
}

// AddWeightedEdge records src->dst with the given weight.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float32) {
	b.setWeighted()
	b.add(src, dst, w, 0)
}

// AddTypedEdge records src->dst with the given weight and edge type.
func (b *Builder) AddTypedEdge(src, dst VertexID, w float32, typ int32) {
	b.setWeighted()
	if !b.typed {
		b.typed = true
		b.types = slices.Grow(b.types[:0], cap(b.srcs))[:len(b.srcs)]
		clear(b.types)
	}
	b.add(src, dst, w, typ)
}

// setWeighted starts the weight column, giving the edges recorded so far
// weight 1.
func (b *Builder) setWeighted() {
	if b.weighted {
		return
	}
	b.weighted = true
	b.weights = slices.Grow(b.weights[:0], cap(b.srcs))[:len(b.srcs)]
	for i := range b.weights {
		b.weights[i] = 1
	}
}

func (b *Builder) add(src, dst VertexID, w float32, typ int32) {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge %d->%d out of range (|V|=%d)", src, dst, b.numVertices))
	}
	b.push(src, dst, w, typ)
	if b.undirected && src != dst {
		b.push(dst, src, w, typ)
	}
}

func (b *Builder) push(src, dst VertexID, w float32, typ int32) {
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	if b.weighted {
		b.weights = append(b.weights, w)
	}
	if b.typed {
		b.types = append(b.types, typ)
	}
}

// NumEdgesAdded returns the number of directed edges recorded so far.
func (b *Builder) NumEdgesAdded() int { return len(b.srcs) }

// Grow makes room for n more AddEdge calls (2n stored edges when the
// builder is undirected), so a caller that knows its edge count up front
// appends without reallocating.
func (b *Builder) Grow(n int) *Builder {
	if b.undirected {
		n *= 2
	}
	b.srcs = slices.Grow(b.srcs, n)
	b.dsts = slices.Grow(b.dsts, n)
	if b.weighted {
		b.weights = slices.Grow(b.weights, n)
	}
	if b.typed {
		b.types = slices.Grow(b.types, n)
	}
	return b
}

// Build produces the CSR graph. The builder can be reused afterwards but
// retains its edges; call Reset to clear.
//
// It orders the edges with two stable counting passes in time linear in
// vertices plus edges. The first scatters each edge's source (and weight
// and type) into buckets by destination; the second walks the buckets in
// destination order and scatters each edge into its source's adjacency.
// So every adjacency comes out sorted by destination, with equal
// destinations in insertion order. With dedup set, the second pass drops
// an edge whose destination equals the one placed just before it at the
// same source, which keeps the first inserted of each parallel group.
func (b *Builder) Build() *Graph {
	n, m := b.numVertices, len(b.srcs)

	// Pass 1: bucket by destination.
	pos := make([]int, n+1)
	for _, d := range b.dsts {
		pos[d+1]++
	}
	for i := 1; i <= n; i++ {
		pos[i] += pos[i-1]
	}
	srcOf := make([]VertexID, m)
	var wOf []float32
	var tOf []int32
	if b.weighted {
		wOf = make([]float32, m)
	}
	if b.typed {
		tOf = make([]int32, m)
	}
	for i, d := range b.dsts {
		p := pos[d]
		pos[d] = p + 1
		srcOf[p] = b.srcs[i]
		if wOf != nil {
			wOf[p] = b.weights[i]
		}
		if tOf != nil {
			tOf[p] = b.types[i]
		}
	}
	// pos[d] is now the end of bucket d, so bucket d is [pos[d-1], pos[d]).

	// Pass 2: scatter into each source's adjacency, destinations ascending.
	offsets := make([]int64, n+1)
	for _, s := range b.srcs {
		offsets[s+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
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
	k := 0
	for d := 0; d < n; d++ {
		v := VertexID(d)
		for ; k < pos[d]; k++ {
			s := srcOf[k]
			p := cursor[s]
			if b.dedup && p > offsets[s] && dst[p-1] == v {
				continue
			}
			cursor[s] = p + 1
			dst[p] = v
			if weight != nil {
				weight[p] = wOf[k]
			}
			if etype != nil {
				etype[p] = tOf[k]
			}
		}
	}
	if b.dedup {
		// Close the gaps the dropped duplicates left, vertex by vertex;
		// every write lands at or before the read it copies.
		w := int64(0)
		for v := 0; v < n; v++ {
			lo, hi := offsets[v], cursor[v]
			offsets[v] = w
			copy(dst[w:], dst[lo:hi])
			if weight != nil {
				copy(weight[w:], weight[lo:hi])
			}
			if etype != nil {
				copy(etype[w:], etype[lo:hi])
			}
			w += hi - lo
		}
		offsets[n] = w
		dst = dst[:w]
		if weight != nil {
			weight = weight[:w]
		}
		if etype != nil {
			etype = etype[:w]
		}
	}
	return &Graph{offsets: offsets, dst: dst, weight: weight, etype: etype}
}

// Reset clears accumulated edges, keeping the vertex count.
func (b *Builder) Reset() {
	b.srcs = b.srcs[:0]
	b.dsts = b.dsts[:0]
	b.weights = b.weights[:0]
	b.types = b.types[:0]
	b.weighted = false
	b.typed = false
}

// Relabel returns a graph with g's offsets and destinations, shared rather
// than copied (both are immutable), and new edge weights and types: f
// gives them for every out-edge e of src, seen as g stores it (weight 1
// and type 0 where g has none). The result stores weights, and types when
// typed is set: the arrays a Builder fed the edges in adjacency order
// would produce, without its second trip through them. g must be a whole
// graph, not a partition slice or an epoch view.
//
// Relabel calls f from several goroutines at once, each over its own
// range of source vertices, so f must be safe for concurrent use (a pure
// function of its arguments is). A panic in f is raised again on the
// caller.
func (g *Graph) Relabel(typed bool, f func(src VertexID, e Edge) (weight float32, typ int32)) *Graph {
	if g.partial || g.over != nil {
		panic("graph: Relabel needs a whole graph, not a partition slice or an epoch view")
	}
	out := &Graph{offsets: g.offsets, dst: g.dst, weight: make([]float32, len(g.dst))}
	if typed {
		out.etype = make([]int32, len(g.dst))
	}
	cuts := g.edgeCuts(parallel.Workers(len(g.dst)))
	parallel.Do(len(cuts)-1, func(k int) {
		for v := cuts[k]; v < cuts[k+1]; v++ {
			for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
				e := Edge{Dst: g.dst[i], Weight: 1}
				if g.weight != nil {
					e.Weight = g.weight[i]
				}
				if g.etype != nil {
					e.Type = g.etype[i]
				}
				w, t := f(VertexID(v), e)
				out.weight[i] = w
				if out.etype != nil {
					out.etype[i] = t
				}
			}
		}
	})
	return out
}

// edgeCuts cuts the vertex range [0, |V|) of a plain graph into k runs
// of about equal edge count: run j is [cuts[j], cuts[j+1]), starting at
// the first vertex whose edges begin at or past j/k of the total.
func (g *Graph) edgeCuts(k int) []int {
	n, total := g.NumVertices(), g.offsets[g.NumVertices()]
	cuts := make([]int, k+1)
	for j := 1; j < k; j++ {
		at := total * int64(j) / int64(k)
		cuts[j] = sort.Search(n, func(v int) bool { return g.offsets[v] >= at })
	}
	cuts[k] = n
	return cuts
}
