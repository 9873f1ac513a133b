package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"knightking/internal/rng"
)

// writeBinaryReference is WriteBinary as first written, every field and
// array through encoding/binary.Write. TestWriteBinaryMatchesReference
// holds the chunked encoder to it byte for byte.
func writeBinaryReference(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.Typed() {
		flags |= flagTyped
	}
	fields := []any{
		uint32(binaryMagic), uint32(binaryVersion), flags,
		uint64(g.NumVertices()), uint64(g.NumEdges()), g.offsets, g.dst,
	}
	if g.Weighted() {
		fields = append(fields, g.weight)
	}
	if g.Typed() {
		fields = append(fields, g.etype)
	}
	for _, f := range fields {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomGraph builds an n-vertex graph of about m edges, weighted and
// typed as asked, with negative types and fractional weights.
func randomGraph(seed uint64, n, m int, weighted, typed bool) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		switch {
		case typed:
			b.AddTypedEdge(u, v, float32(r.Float64()*8), int32(r.Intn(9))-4)
		case weighted:
			b.AddWeightedEdge(u, v, float32(r.Float64()*8))
		default:
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestWriteBinaryMatchesReference checks the encoder byte for byte
// against encoding/binary on graphs whose arrays span several chunks,
// and that both load paths read each file back to the same arrays.
func TestWriteBinaryMatchesReference(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":      NewBuilder(0).Build(),
		"isolated":   NewBuilder(3).Build(),
		"unweighted": randomGraph(1, 20000, 50000, false, false),
		"weighted":   randomGraph(2, 9000, 40000, true, false),
		"typed":      randomGraph(3, 5000, 30000, true, true),
	}
	dir := t.TempDir()
	for name, g := range graphs {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if want := writeBinaryReference(t, g); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: WriteBinary wrote %d bytes that differ from the reference's %d", name, buf.Len(), len(want))
		}
		mem, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: from memory: %v", name, err)
		}
		path := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := Open(path, true, false)
		if err != nil {
			t.Fatalf("%s: from a file: %v", name, err)
		}
		for what, back := range map[string]*Graph{"memory": mem, "file": file} {
			if !sameArrays(g, back) {
				t.Fatalf("%s: the graph read back from %s differs from the one written", name, what)
			}
		}
	}
}

// sameArrays reports whether a and b hold equal CSR arrays, weights
// compared by their bits, with an absent array distinct from an empty one.
func sameArrays(a, b *Graph) bool {
	bits := func(w []float32) []uint32 {
		if w == nil {
			return nil
		}
		out := make([]uint32, len(w))
		for i, x := range w {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.dst, b.dst) &&
		(a.weight == nil) == (b.weight == nil) && slices.Equal(bits(a.weight), bits(b.weight)) &&
		(a.etype == nil) == (b.etype == nil) && slices.Equal(a.etype, b.etype) &&
		a.partial == b.partial && a.ownedLo == b.ownedLo && a.ownedHi == b.ownedHi
}

// readBoth loads data from memory and from a file in dir. Both must give
// the same graph, or both must fail; it returns the file path's graph
// and error.
func readBoth(t *testing.T, dir string, data []byte) (*Graph, error) {
	t.Helper()
	mem, memErr := ReadBinary(bytes.NewReader(data))
	path := filepath.Join(dir, "g.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	file, fileErr := Open(path, true, false)
	switch {
	case (memErr == nil) != (fileErr == nil):
		t.Fatalf("load paths disagree: from memory %v, from a file %v", memErr, fileErr)
	case memErr == nil && !sameArrays(mem, file):
		t.Fatal("load paths read different graphs")
	}
	return file, fileErr
}

// TestReadBinaryLyingHeader writes a file whose header claims 1<<30
// edges over a handful of bytes. Opening it must fail with an error that
// names both the announced and the actual size, before allocating the
// arrays: under 1 MiB in all. The same bytes from memory fail as cheaply,
// through the bounded chunked growth.
func TestReadBinaryLyingHeader(t *testing.T) {
	var hdr [binaryHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[8:], flagWeighted)
	binary.LittleEndian.PutUint64(hdr[12:], 4)
	binary.LittleEndian.PutUint64(hdr[20:], 1<<30)
	data := append(hdr[:], make([]byte, 5*8+3*4)...)
	path := filepath.Join(t.TempDir(), "lying.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	announced := strconv.FormatUint(5*8+8<<30, 10)
	left := strconv.Itoa(len(data) - binaryHeaderLen)

	allocated := func(load func() error) (uint64, error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := load()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	n, err := allocated(func() error { _, err := Open(path, true, false); return err })
	if err == nil {
		t.Fatal("a file shorter than its header announces was accepted")
	}
	if !strings.Contains(err.Error(), announced) || !strings.Contains(err.Error(), left) {
		t.Fatalf("error %q does not name both the announced %s bytes and the %s left", err, announced, left)
	}
	if n >= 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes, want under 1 MiB", n)
	}
	n, err = allocated(func() error { _, err := ReadBinary(bytes.NewReader(data)); return err })
	if err == nil {
		t.Fatal("the same bytes from memory were accepted")
	}
	if n >= 1<<20 {
		t.Fatalf("rejecting the bytes from memory allocated %d bytes, want under 1 MiB", n)
	}
}

// TestReadBinarySliceFromFile loads every slice of a typed graph from a
// file and from memory, against Subgraph of the whole graph.
func TestReadBinarySliceFromFile(t *testing.T) {
	g := randomGraph(4, 3000, 20000, true, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	for _, r := range [][2]VertexID{{0, 3000}, {0, 1}, {1000, 2000}, {2999, 3000}, {1500, 1500}} {
		want := Subgraph(g, r[0], r[1])
		for what, rs := range map[string]io.ReadSeeker{"file": f, "memory": bytes.NewReader(buf.Bytes())} {
			got, err := ReadBinarySlice(rs, r[0], r[1])
			if err != nil {
				t.Fatalf("slice %v from %s: %v", r, what, err)
			}
			if !sameArrays(got, want) {
				t.Fatalf("slice %v from %s differs from Subgraph", r, what)
			}
		}
	}
}
