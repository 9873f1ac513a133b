package graph

import "fmt"

// Overlay support: a Graph may carry an overlay — per-vertex replacement
// adjacency segments layered over the immutable base CSR arrays. An
// overlay graph is the engine-facing materialization of one dynamic-graph
// epoch (internal/dyngraph): vertices touched by edge ingest since the
// last compaction resolve to their overlay segment, every other vertex
// resolves to the base arrays it shares with sibling epochs.
//
// The overlay is a page directory of immutable, separately allocated
// pages of segment pointers. Derive builds the next epoch's view from the
// previous one by copying the directory and cloning only the pages the
// batch touched, so publishing costs O(batch + V/PageSize) however large
// the overlay has grown, and every earlier view stays intact for the
// walks still running on it.
//
// Lookup cost is one nil check for plain graphs and three dependent
// loads for overlay graphs, so a step on an epoch costs about what it
// costs on a plain CSR; the base arrays are never copied.
type overlayData struct {
	// pages[v>>pageBits][v&pageMask] is v's replacement segment; a nil
	// page or a nil entry means v reads the base arrays.
	pages []*overlayPage

	// verts counts the overlaid vertices; edgeDelta is the overlay's
	// total segment length minus the base degree sum of those vertices,
	// the edge count adjustment NumEdges applies.
	verts     int
	edgeDelta int64
}

// PageSize is the vertex span of one copy-on-write page of an overlay
// view (and of the dynamic graph's alias-row table): 64 vertices, so a
// cloned page is 512 bytes of pointers and the directory holds one
// pointer per 64 vertices.
const (
	pageBits = 6
	PageSize = 1 << pageBits
	pageMask = PageSize - 1
)

type overlayPage [PageSize]*Segment

// Segment is one vertex's replacement adjacency in an overlay view:
// destinations sorted ascending, with parallel weights and types present
// exactly when the base graph has them.
type Segment struct {
	Dst    []VertexID
	Weight []float32
	Type   []int32
}

// seg returns v's replacement segment, or nil when v reads the base
// arrays.
//
//kk:hotpath
func (o *overlayData) seg(v VertexID) *Segment {
	page := o.pages[v>>pageBits]
	if page == nil {
		return nil
	}
	return page[v&pageMask]
}

// Derive returns a view of prev with the adjacency of verts[i] (strictly
// increasing) replaced by segs[i]. prev may be a plain full CSR or an
// earlier overlay view; the result shares prev's base arrays and every
// segment and page of prev the batch did not touch, and validates only
// the new segments. The view points into segs and shares the segments'
// slices — callers must treat both as frozen from here on. prev is
// unchanged.
func Derive(prev *Graph, verts []VertexID, segs []Segment) (*Graph, error) {
	if prev == nil {
		return nil, fmt.Errorf("graph: overlay over nil base")
	}
	if prev.partial {
		return nil, fmt.Errorf("graph: overlay over a partition-local slice is not supported")
	}
	if len(segs) != len(verts) {
		return nil, fmt.Errorf("graph: %d overlay segments for %d vertices", len(segs), len(verts))
	}
	n := prev.NumVertices()
	next := &overlayData{pages: make([]*overlayPage, (n+pageMask)>>pageBits)}
	var oldPages []*overlayPage
	if old := prev.over; old != nil {
		oldPages = old.pages
		copy(next.pages, oldPages)
		next.verts, next.edgeDelta = old.verts, old.edgeDelta
	}
	for i, v := range verts {
		if int(v) >= n {
			return nil, fmt.Errorf("graph: overlay vertex %d outside |V|=%d", v, n)
		}
		if i > 0 && verts[i-1] >= v {
			return nil, fmt.Errorf("graph: overlay vertices not strictly increasing at %d", v)
		}
		s := &segs[i]
		if prev.weight == nil && s.Weight != nil || prev.weight != nil && len(s.Weight) != len(s.Dst) {
			return nil, fmt.Errorf("graph: overlay weights of vertex %d must match the base and the segment length", v)
		}
		if prev.etype == nil && s.Type != nil || prev.etype != nil && len(s.Type) != len(s.Dst) {
			return nil, fmt.Errorf("graph: overlay types of vertex %d must match the base and the segment length", v)
		}
		for j, d := range s.Dst {
			if int(d) >= n {
				return nil, fmt.Errorf("graph: overlay edge %d->%d out of range (|V|=%d)", v, d, n)
			}
			if j > 0 && s.Dst[j-1] > d {
				return nil, fmt.Errorf("graph: overlay adjacency of %d not sorted", v)
			}
		}
		next.edgeDelta += int64(len(s.Dst) - prev.Degree(v))
		p := v >> pageBits
		if page := next.pages[p]; page == nil || oldPages != nil && page == oldPages[p] {
			clone := new(overlayPage)
			if page != nil {
				*clone = *page
			}
			next.pages[p] = clone
		}
		if next.pages[p][v&pageMask] == nil {
			next.verts++
		}
		next.pages[p][v&pageMask] = s
	}
	return &Graph{
		offsets: prev.offsets,
		dst:     prev.dst,
		weight:  prev.weight,
		etype:   prev.etype,
		over:    next,
	}, nil
}

// Overlaid reports whether this graph is an overlay view (a dynamic-graph
// epoch materialization) rather than a plain CSR.
func (g *Graph) Overlaid() bool { return g.over != nil }

// OverlayStats reports the overlay's size: how many vertices have
// replacement segments and the net edge-count delta versus the base.
// Zero values for plain graphs.
func (g *Graph) OverlayStats() (verts int, edgeDelta int64) {
	if g.over == nil {
		return 0, 0
	}
	return g.over.verts, g.over.edgeDelta
}

// overlaid calls fn with every overlaid vertex and its segment, in
// increasing vertex order.
func (o *overlayData) overlaid(fn func(v VertexID, s *Segment)) {
	for p, page := range o.pages {
		if page == nil {
			continue
		}
		for i, s := range page {
			if s != nil {
				fn(VertexID(p<<pageBits|i), s)
			}
		}
	}
}

// Compacted materializes an overlay view into a fresh plain CSR graph in
// O(V+E) — the dynamic-graph compaction step. The result is
// walk-indistinguishable from the view: every accessor, MaxWeight
// included, returns the same values. Plain graphs are returned unchanged:
// they are immutable, so no copy is needed.
func (g *Graph) Compacted() *Graph {
	if g.over == nil {
		return g
	}
	n := g.NumVertices()
	total := g.NumEdges()
	out := &Graph{
		offsets: make([]int64, n+1),
		dst:     make([]VertexID, 0, total),
	}
	if g.weight != nil {
		out.weight = make([]float32, 0, total)
	}
	if g.etype != nil {
		out.etype = make([]int32, 0, total)
	}
	for v := 0; v < n; v++ {
		out.dst = append(out.dst, g.Neighbors(VertexID(v))...)
		if out.weight != nil {
			out.weight = append(out.weight, g.Weights(VertexID(v))...)
		}
		if out.etype != nil {
			out.etype = append(out.etype, g.Types(VertexID(v))...)
		}
		out.offsets[v+1] = int64(len(out.dst))
	}
	return out
}
