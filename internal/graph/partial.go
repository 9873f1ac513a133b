package graph

import (
	"fmt"
	"io"
)

// This file supports partition-local graph loading: in a real multi-node
// deployment each process holds only its vertex range's adjacency ("with
// inadequate memory capacity being the chief cause of distributed
// processing in the first place", paper §6.1). The binary CSR format
// makes this a three-step process:
//
//  1. ReadBinaryDegrees streams just the header and offset array (16 bytes
//     per vertex, tiny next to the edges) to obtain per-vertex degrees,
//  2. the caller computes the same 1-D partition every rank computes
//     (cluster.PartitionDegrees), and
//  3. ReadBinarySlice loads only the owned range's edge arrays, skipping
//     the rest of the file.
//
// The resulting Graph has the full vertex ID space but edges only for
// owned vertices; OwnedRange reports the populated range and accessing an
// unowned vertex's edges panics (catching ownership bugs early).

// PartialHeader carries what ReadBinaryDegrees learned about the file.
type PartialHeader struct {
	NumVertices int
	NumEdges    int64
	Weighted    bool
	Typed       bool
	offsets     []int64
}

// Degree returns vertex v's degree from the offset array alone.
func (h *PartialHeader) Degree(v VertexID) int {
	return int(h.offsets[v+1] - h.offsets[v])
}

// ReadBinaryDegrees reads a binary CSR file's header and offset array,
// leaving the reader positioned at the start of the edge arrays.
func ReadBinaryDegrees(r io.Reader) (*PartialHeader, error) {
	h, _, err := readDegrees(r)
	return h, err
}

// readDegrees is ReadBinaryDegrees, also returning the reader it read
// through, for the edge arrays that follow.
func readDegrees(r io.Reader) (*PartialHeader, *binReader, error) {
	bh, err := readBinaryHeader(r)
	if err != nil {
		return nil, nil, err
	}
	br, err := newBinReader(r, bh)
	if err != nil {
		return nil, nil, err
	}
	offsets, err := readArray[int64](br, bh.nv+1, "offsets")
	if err != nil {
		return nil, nil, err
	}
	nv := int(bh.nv)
	h := &PartialHeader{
		NumVertices: nv,
		NumEdges:    int64(bh.ne),
		Weighted:    bh.flags&flagWeighted != 0,
		Typed:       bh.flags&flagTyped != 0,
		offsets:     offsets,
	}
	if offsets[0] != 0 || offsets[nv] != int64(bh.ne) {
		return nil, nil, fmt.Errorf("graph: corrupt offset array")
	}
	for v := 0; v < nv; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	return h, br, nil
}

// ReadBinarySlice loads the adjacency of vertices [lo, hi) from a binary
// CSR file, seeking past everything else. The returned graph spans the
// full vertex ID space but panics on edge access outside [lo, hi).
func ReadBinarySlice(rs io.ReadSeeker, lo, hi VertexID) (*Graph, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("graph: seek: %w", err)
	}
	h, br, err := readDegrees(rs)
	if err != nil {
		return nil, err
	}
	if int(hi) > h.NumVertices || lo > hi {
		return nil, fmt.Errorf("graph: slice [%d,%d) outside |V|=%d", lo, hi, h.NumVertices)
	}

	// File layout after offsets: dst [ne]u32, weight [ne]f32?, type [ne]i32?.
	offsetsLen := int64(h.NumVertices+1) * 8
	dstBase := binaryHeaderLen + offsetsLen
	edgeLo, edgeHi := h.offsets[lo], h.offsets[hi]
	sliceEdges := uint64(edgeHi - edgeLo)

	seek := func(base int64) error {
		if _, err := rs.Seek(base+edgeLo*4, io.SeekStart); err != nil {
			return fmt.Errorf("graph: seek edge array: %w", err)
		}
		return nil
	}

	g := &Graph{offsets: make([]int64, h.NumVertices+1)}
	// Offsets: 0 outside the owned range; shifted copies inside, so the
	// slice's edges index from 0.
	for v := int(lo); v < int(hi); v++ {
		g.offsets[v+1] = h.offsets[v+1] - edgeLo
	}
	for v := int(hi); v < h.NumVertices; v++ {
		g.offsets[v+1] = g.offsets[int(hi)]
	}
	// Vertices before lo keep offset 0 (degree 0): already zeroed.
	if err := seek(dstBase); err != nil {
		return nil, err
	}
	if g.dst, err = readArray[VertexID](br, sliceEdges, "slice dst"); err != nil {
		return nil, err
	}
	next := dstBase + h.NumEdges*4
	if h.Weighted {
		if err := seek(next); err != nil {
			return nil, err
		}
		if g.weight, err = readArray[float32](br, sliceEdges, "slice weights"); err != nil {
			return nil, err
		}
		next += h.NumEdges * 4
	}
	if h.Typed {
		if err := seek(next); err != nil {
			return nil, err
		}
		if g.etype, err = readArray[int32](br, sliceEdges, "slice types"); err != nil {
			return nil, err
		}
	}
	g.ownedLo, g.ownedHi = lo, hi
	g.partial = true
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Subgraph returns a partition-local view of g holding only the adjacency
// of vertices [lo, hi): the in-memory equivalent of ReadBinarySlice, for
// tests and for carving an already-loaded graph before handing it to
// per-process workers.
func Subgraph(g *Graph, lo, hi VertexID) *Graph {
	n := g.NumVertices()
	if int(hi) > n || lo > hi {
		panic(fmt.Sprintf("graph: Subgraph [%d,%d) outside |V|=%d", lo, hi, n))
	}
	if g.over != nil {
		// Slicing the raw base arrays would drop the overlay deltas.
		panic("graph: Subgraph over an overlay view; call Compacted() first")
	}
	edgeLo, edgeHi := g.offsets[lo], g.offsets[hi]
	out := &Graph{
		offsets: make([]int64, n+1),
		dst:     g.dst[edgeLo:edgeHi],
		partial: true,
		ownedLo: lo,
		ownedHi: hi,
	}
	if g.weight != nil {
		out.weight = g.weight[edgeLo:edgeHi]
	}
	if g.etype != nil {
		out.etype = g.etype[edgeLo:edgeHi]
	}
	for v := int(lo); v < int(hi); v++ {
		out.offsets[v+1] = g.offsets[v+1] - edgeLo
	}
	for v := int(hi); v < n; v++ {
		out.offsets[v+1] = out.offsets[int(hi)]
	}
	return out
}

// OwnedRange reports the vertex range whose adjacency this graph holds.
// Full graphs own [0, |V|).
func (g *Graph) OwnedRange() (lo, hi VertexID) {
	if !g.partial {
		return 0, VertexID(g.NumVertices())
	}
	return g.ownedLo, g.ownedHi
}

// Partial reports whether this graph holds only a vertex-range slice.
func (g *Graph) Partial() bool { return g.partial }

// checkOwned panics when a partial graph's unowned adjacency is accessed —
// that is always an ownership bug in the caller.
func (g *Graph) checkOwned(v VertexID) {
	if g.partial && (v < g.ownedLo || v >= g.ownedHi) {
		panic(fmt.Sprintf("graph: access to vertex %d outside owned range [%d,%d)", //kk:alloc-ok panic path: an ownership bug aborts the run, never steady state
			v, g.ownedLo, g.ownedHi))
	}
}
