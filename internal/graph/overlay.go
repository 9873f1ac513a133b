package graph

import (
	"fmt"
	"math"
)

// Overlay support: a Graph may carry an overlay — per-vertex replacement
// adjacency segments layered over the immutable base CSR arrays. An
// overlay graph is the engine-facing materialization of one dynamic-graph
// epoch (internal/dyngraph): vertices touched by edge ingest since the
// last compaction resolve to their overlay segment, every other vertex
// resolves to the base arrays it shares with sibling epochs. The view is
// itself immutable; writers produce a new view per epoch (copy-on-write
// of the overlay arrays only), so concurrent walks on older epochs are
// never disturbed.
//
// Lookup cost is one nil check for plain graphs and two array loads
// through a page table for overlay graphs, so a step on an epoch costs
// the same as on a plain CSR; the base arrays are never copied.
type overlayData struct {
	// verts lists the vertices whose adjacency is replaced, strictly
	// increasing. offs is the CSR-style offset array into the segment
	// arrays below (len(verts)+1 entries, offs[0] == 0).
	verts []VertexID
	offs  []int64

	// pages[v>>overlayPageBits][v&overlayPageMask] holds v's slot in verts
	// plus one (0 = base); a page with no overlaid vertex is nil.
	pages [][]int32

	// Replacement adjacency, concatenated in verts order; each segment is
	// sorted by destination. weight and etype are present exactly when the
	// base arrays are.
	dst    []VertexID
	weight []float32
	etype  []int32

	// edgeDelta is len(dst) minus the base degree sum of verts: the edge
	// count adjustment NumEdges applies.
	edgeDelta int64
}

// An overlay page covers 4,096 vertices: 16 KiB of slots.
const (
	overlayPageBits = 12
	overlayPageMask = 1<<overlayPageBits - 1
)

// find returns the overlay index of v, or -1 when v's adjacency comes
// from the base arrays.
//
//kk:hotpath
func (o *overlayData) find(v VertexID) int {
	page := o.pages[v>>overlayPageBits]
	if page == nil {
		return -1
	}
	return int(page[v&overlayPageMask]) - 1
}

// NewOverlay returns a view of base with the adjacency of verts[i]
// replaced by the i-th segment of the given CSR-style arrays
// (dst[offs[i]:offs[i+1]], with parallel weight/etype slices when base is
// weighted/typed). The returned graph shares every input slice — callers
// must treat them as frozen from here on.
func NewOverlay(base *Graph, verts []VertexID, offs []int64, dst []VertexID, weight []float32, etype []int32) (*Graph, error) {
	if base == nil {
		return nil, fmt.Errorf("graph: overlay over nil base")
	}
	if base.partial {
		return nil, fmt.Errorf("graph: overlay over a partition-local slice is not supported")
	}
	if base.over != nil {
		return nil, fmt.Errorf("graph: overlays do not stack; compact the base first")
	}
	n := base.NumVertices()
	if len(offs) != len(verts)+1 {
		return nil, fmt.Errorf("graph: overlay offs length %d, want %d", len(offs), len(verts)+1)
	}
	if len(offs) > 0 && offs[0] != 0 {
		return nil, fmt.Errorf("graph: overlay offs[0] = %d, want 0", offs[0])
	}
	if (base.weight != nil) != (weight != nil) {
		return nil, fmt.Errorf("graph: overlay weight presence must match the base")
	}
	if (base.etype != nil) != (etype != nil) {
		return nil, fmt.Errorf("graph: overlay type presence must match the base")
	}
	if weight != nil && len(weight) != len(dst) {
		return nil, fmt.Errorf("graph: overlay weight length %d != dst length %d", len(weight), len(dst))
	}
	if etype != nil && len(etype) != len(dst) {
		return nil, fmt.Errorf("graph: overlay type length %d != dst length %d", len(etype), len(dst))
	}
	if len(verts) >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: overlay of %d vertices exceeds the slot range", len(verts))
	}
	pages := make([][]int32, (n+overlayPageMask)>>overlayPageBits)
	baseDeg := int64(0)
	for i, v := range verts {
		if int(v) >= n {
			return nil, fmt.Errorf("graph: overlay vertex %d outside |V|=%d", v, n)
		}
		if i > 0 && verts[i-1] >= v {
			return nil, fmt.Errorf("graph: overlay vertices not strictly increasing at %d", v)
		}
		if offs[i+1] < offs[i] || offs[i+1] > int64(len(dst)) {
			return nil, fmt.Errorf("graph: overlay offsets not monotone at vertex %d", v)
		}
		seg := dst[offs[i]:offs[i+1]]
		for j, d := range seg {
			if int(d) >= n {
				return nil, fmt.Errorf("graph: overlay edge %d->%d out of range (|V|=%d)", v, d, n)
			}
			if j > 0 && seg[j-1] > d {
				return nil, fmt.Errorf("graph: overlay adjacency of %d not sorted", v)
			}
		}
		baseDeg += base.offsets[v+1] - base.offsets[v]
		if pages[v>>overlayPageBits] == nil {
			pages[v>>overlayPageBits] = make([]int32, overlayPageMask+1)
		}
		pages[v>>overlayPageBits][v&overlayPageMask] = int32(i + 1)
	}
	if len(dst) > 0 && int64(len(dst)) != offs[len(offs)-1] {
		return nil, fmt.Errorf("graph: overlay dst length %d != offs end %d", len(dst), offs[len(offs)-1])
	}
	return &Graph{
		offsets: base.offsets,
		dst:     base.dst,
		weight:  base.weight,
		etype:   base.etype,
		over: &overlayData{
			verts:     verts,
			offs:      offs,
			pages:     pages,
			dst:       dst,
			weight:    weight,
			etype:     etype,
			edgeDelta: int64(len(dst)) - baseDeg,
		},
	}, nil
}

// Overlaid reports whether this graph is an overlay view (a dynamic-graph
// epoch materialization) rather than a plain CSR.
func (g *Graph) Overlaid() bool { return g.over != nil }

// OverlayIndex returns v's position in the overlay vertex list given to
// NewOverlay, or -1 when v reads the base arrays (always, for plain
// graphs), in O(1).
//
//kk:hotpath
func (g *Graph) OverlayIndex(v VertexID) int {
	if g.over == nil {
		return -1
	}
	return g.over.find(v)
}

// OverlayStats reports the overlay's size: how many vertices have
// replacement segments and the net edge-count delta versus the base.
// Zero values for plain graphs.
func (g *Graph) OverlayStats() (verts int, edgeDelta int64) {
	if g.over == nil {
		return 0, 0
	}
	return len(g.over.verts), g.over.edgeDelta
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
