package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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

// binaryHeaderLen is the byte length of the fixed header above.
const binaryHeaderLen = 4 + 4 + 4 + 8 + 8

// binaryHeader is the decoded fixed header of a binary CSR file.
type binaryHeader struct {
	flags  uint32
	nv, ne uint64
}

// arraysLen is the byte length of the arrays the header announces.
func (h binaryHeader) arraysLen() uint64 {
	per := uint64(4)
	if h.flags&flagWeighted != 0 {
		per += 4
	}
	if h.flags&flagTyped != 0 {
		per += 4
	}
	return 8*(h.nv+1) + per*h.ne
}

// WriteBinary serializes g in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	if g.Overlaid() {
		// The serializer writes the raw base arrays; an overlay view would
		// silently lose its deltas. Callers must materialize first.
		return fmt.Errorf("graph: cannot serialize an overlay view; call Compacted() first")
	}
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.Typed() {
		flags |= flagTyped
	}
	var hdr [binaryHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(g.NumEdges()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	chunk := make([]byte, codecChunk)
	if err := writeArray(w, chunk, g.offsets); err != nil {
		return err
	}
	if err := writeArray(w, chunk, g.dst); err != nil {
		return err
	}
	if g.Weighted() {
		if err := writeArray(w, chunk, g.weight); err != nil {
			return err
		}
	}
	if g.Typed() {
		return writeArray(w, chunk, g.etype)
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary and validates it.
// From a regular file it checks the header's array sizes against the
// bytes the file has left and then allocates each array once, at its
// size; from any other reader it grows them in bounded chunks. Either way
// a header that claims more data than there is fails without a large
// allocation.
func ReadBinary(r io.Reader) (*Graph, error) {
	h, err := readBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	br, err := newBinReader(r, h)
	if err != nil {
		return nil, err
	}
	g := &Graph{}
	if g.offsets, err = readArray[int64](br, h.nv+1, "offsets"); err != nil {
		return nil, err
	}
	if g.dst, err = readArray[VertexID](br, h.ne, "dst"); err != nil {
		return nil, err
	}
	if h.flags&flagWeighted != 0 {
		if g.weight, err = readArray[float32](br, h.ne, "weights"); err != nil {
			return nil, err
		}
	}
	if h.flags&flagTyped != 0 {
		if g.etype, err = readArray[int32](br, h.ne, "types"); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readBinaryHeader reads and checks the fixed header.
func readBinaryHeader(r io.Reader) (binaryHeader, error) {
	var b [binaryHeaderLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return binaryHeader{}, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(b[0:]); magic != binaryMagic {
		return binaryHeader{}, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(b[4:]); version != binaryVersion {
		return binaryHeader{}, fmt.Errorf("graph: unsupported version %d", version)
	}
	h := binaryHeader{
		flags: binary.LittleEndian.Uint32(b[8:]),
		nv:    binary.LittleEndian.Uint64(b[12:]),
		ne:    binary.LittleEndian.Uint64(b[20:]),
	}
	if h.flags&^uint32(flagWeighted|flagTyped) != 0 {
		return binaryHeader{}, fmt.Errorf("graph: unknown flag bits %#x", h.flags)
	}
	if h.nv >= 1<<40 || h.ne >= 1<<48 {
		return binaryHeader{}, fmt.Errorf("graph: implausible binary header (|V|=%d |E|=%d)", h.nv, h.ne)
	}
	return h, nil
}

// codecChunk is the byte size of the one buffer a read or a write moves
// every array through.
const codecChunk = 1 << 16

// binReader reads the little-endian arrays of one binary CSR file
// through a single reused chunk.
type binReader struct {
	r     io.Reader
	chunk []byte
	// sized is set when r is a regular file that holds every byte the
	// header announces from the current offset on, so arrays are made at
	// their full length up front instead of grown chunk by chunk.
	sized bool
}

// newBinReader prepares to read the arrays h announces from r, which is
// positioned right after the header. For a regular file it fails, naming
// both sizes, when the arrays would run past the end of the file.
func newBinReader(r io.Reader, h binaryHeader) (*binReader, error) {
	br := &binReader{r: r}
	if f, ok := r.(*os.File); ok {
		info, err := f.Stat()
		if err == nil && info.Mode().IsRegular() {
			if at, err := f.Seek(0, io.SeekCurrent); err == nil {
				left := uint64(max(info.Size()-at, 0))
				if need := h.arraysLen(); need > left {
					return nil, fmt.Errorf("graph: binary header announces %d bytes of arrays (|V|=%d |E|=%d), file has %d left",
						need, h.nv, h.ne, left)
				}
				br.sized = true
			}
		}
	}
	br.chunk = make([]byte, codecChunk)
	return br, nil
}

// codecValue is an element type of the binary format's arrays.
type codecValue interface {
	int64 | int32 | uint32 | float32
}

// readArray reads exactly n little-endian values. Unless the reader is
// sized, the result grows in bounded chunks so declared-but-absent data
// cannot force a huge upfront allocation.
func readArray[T codecValue](br *binReader, n uint64, what string) ([]T, error) {
	var out []T
	if br.sized {
		out = make([]T, n)
	} else {
		out = make([]T, 0, min(n, codecChunk/sizeOf[T]()))
	}
	width := sizeOf[T]()
	per := uint64(len(br.chunk)) / width
	for done := uint64(0); done < n; {
		take := min(n-done, per)
		b := br.chunk[:take*width]
		if _, err := io.ReadFull(br.r, b); err != nil {
			return nil, fmt.Errorf("graph: binary %s: %w", what, err)
		}
		if !br.sized {
			out = slices.Grow(out, int(take))[:done+take]
		}
		decode(out[done:done+take], b)
		done += take
	}
	return out, nil
}

// sizeOf is the encoded width of T in bytes.
func sizeOf[T codecValue]() uint64 {
	var zero T
	switch any(zero).(type) {
	case int64:
		return 8
	default:
		return 4
	}
}

// decode fills dst from the little-endian bytes b, len(dst) values.
func decode[T codecValue](dst []T, b []byte) {
	switch d := any(dst).(type) {
	case []int64:
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case []uint32:
		for i := range d {
			d[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	case []int32:
		for i := range d {
			d[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
}

// encode writes src into b little-endian, len(src) values.
func encode[T codecValue](b []byte, src []T) {
	switch s := any(src).(type) {
	case []int64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
	case []uint32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
	case []int32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	case []float32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
	}
}

// writeArray writes src little-endian through chunk.
func writeArray[T codecValue](w io.Writer, chunk []byte, src []T) error {
	width := int(sizeOf[T]())
	per := len(chunk) / width
	for len(src) > 0 {
		take := min(len(src), per)
		b := chunk[:take*width]
		encode(b, src[:take])
		if _, err := w.Write(b); err != nil {
			return err
		}
		src = src[take:]
	}
	return nil
}
