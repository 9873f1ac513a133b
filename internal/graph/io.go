package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text edge-list format: one edge per line, whitespace-separated fields
//
//	src dst [weight [type]]
//
// Lines starting with '#' or '%' are comments. Vertex IDs are dense
// non-negative integers; the vertex count is max(id)+1 unless a larger
// count is given.

// Open loads the graph file at path: the binary CSR format when binary is
// set, otherwise a text edge list, whose edges undirected stores in both
// directions.
func Open(path string, binary, undirected bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	if binary {
		return ReadBinary(f)
	}
	return ReadEdgeList(f, undirected, 0)
}

// ReadEdgeList parses a text edge list. If undirected is true every edge is
// stored in both directions. minVertices, if positive, forces at least that
// many vertices (for graphs with isolated trailing vertices).
func ReadEdgeList(r io.Reader, undirected bool, minVertices int) (*Graph, error) {
	type rawEdge struct {
		src, dst VertexID
		w        float32
		typ      int32
	}
	var edges []rawEdge
	maxID := -1
	weighted, typed := false, false

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", lineNo, err)
		}
		e := rawEdge{src: VertexID(src), dst: VertexID(dst), w: 1}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
			e.w = float32(w)
			weighted = true
		}
		if len(fields) >= 4 {
			t, err := strconv.ParseInt(fields[3], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad type: %v", lineNo, err)
			}
			e.typ = int32(t)
			typed = true
		}
		if int(src) > maxID {
			maxID = int(src)
		}
		if int(dst) > maxID {
			maxID = int(dst)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}

	n := maxID + 1
	if minVertices > n {
		n = minVertices
	}
	b := NewBuilder(n).SetUndirected(undirected).Grow(len(edges))
	for _, e := range edges {
		switch {
		case typed:
			b.AddTypedEdge(e.src, e.dst, e.w, e.typ)
		case weighted:
			b.AddWeightedEdge(e.src, e.dst, e.w)
		default:
			b.AddEdge(e.src, e.dst)
		}
	}
	return b.Build(), nil
}

// WriteEdgeList writes the graph as a text edge list (every stored directed
// edge on its own line, including both directions of undirected edges).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		deg := g.Degree(VertexID(v))
		for i := 0; i < deg; i++ {
			e := g.EdgeAt(VertexID(v), i)
			var err error
			switch {
			case g.Typed():
				_, err = fmt.Fprintf(bw, "%d %d %g %d\n", v, e.Dst, e.Weight, e.Type)
			case g.Weighted():
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, e.Dst, e.Weight)
			default:
				_, err = fmt.Fprintf(bw, "%d %d\n", v, e.Dst)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Binary format: a compact little-endian CSR dump.
//
//	magic   uint32 = 0x4b4b4752 ("KKGR")
//	version uint32 = 1
//	flags   uint32 (bit 0: weighted, bit 1: typed)
//	numVertices uint64
//	numEdges    uint64
//	offsets [numVertices+1]int64
//	dst     [numEdges]uint32
//	weight  [numEdges]float32 (if weighted)
//	etype   [numEdges]int32   (if typed)

const (
	binaryMagic   = 0x4b4b4752
	binaryVersion = 1
	flagWeighted  = 1 << 0
	flagTyped     = 1 << 1
)

// WriteBinary serializes g in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	if g.Overlaid() {
		// The serializer writes the raw base arrays; an overlay view would
		// silently lose its deltas. Callers must materialize first.
		return fmt.Errorf("graph: cannot serialize an overlay view; call Compacted() first")
	}
	bw := bufio.NewWriter(w)
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.Typed() {
		flags |= flagTyped
	}
	hdr := []interface{}{
		uint32(binaryMagic), uint32(binaryVersion), flags,
		uint64(g.NumVertices()), uint64(g.NumEdges()),
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, arr := range []interface{}{g.offsets, g.dst} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.weight); err != nil {
			return err
		}
	}
	if g.Typed() {
		if err := binary.Write(bw, binary.LittleEndian, g.etype); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic, version, flags uint32
	var nv, ne uint64
	for _, p := range []interface{}{&magic, &version, &flags, &nv, &ne} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: binary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if flags&^uint32(flagWeighted|flagTyped) != 0 {
		return nil, fmt.Errorf("graph: unknown flag bits %#x", flags)
	}
	if nv >= 1<<40 || ne >= 1<<48 {
		return nil, fmt.Errorf("graph: implausible binary header (|V|=%d |E|=%d)", nv, ne)
	}
	// Array sizes come from an untrusted header; read in bounded chunks so
	// a lying header fails with a clean error after a small allocation
	// instead of attempting a gigantic one.
	g := &Graph{}
	var err error
	if g.offsets, err = readChunked[int64](br, nv+1, "offsets"); err != nil {
		return nil, err
	}
	if g.dst, err = readChunked[VertexID](br, ne, "dst"); err != nil {
		return nil, err
	}
	if flags&flagWeighted != 0 {
		if g.weight, err = readChunked[float32](br, ne, "weights"); err != nil {
			return nil, err
		}
	}
	if flags&flagTyped != 0 {
		if g.etype, err = readChunked[int32](br, ne, "types"); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunked reads exactly n little-endian values, growing the result in
// bounded chunks so declared-but-absent data cannot force a huge upfront
// allocation.
func readChunked[T int64 | int32 | uint32 | float32](r io.Reader, n uint64, what string) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min64(n, chunk))
	for remaining := n; remaining > 0; {
		take := min64(remaining, chunk)
		buf := make([]T, take)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: binary %s: %w", what, err)
		}
		out = append(out, buf...)
		remaining -= take
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
