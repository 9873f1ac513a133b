package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks that arbitrary text input never panics the
// parser and that accepted graphs always validate.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n", true)
	f.Add("# comment\n3 4 2.5\n", false)
	f.Add("0 1 1.0 3\n", false)
	f.Add("", true)
	f.Add("999999 0\n", false)
	f.Add("0 1 nan\n", false)
	f.Fuzz(func(t *testing.T, input string, undirected bool) {
		if hugeVertexIDs(input) {
			return // avoid multi-GB allocations from tiny inputs
		}
		g, err := ReadEdgeList(strings.NewReader(input), undirected, 0)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v (input %q)", verr, input)
		}
	})
}

// hugeVertexIDs reports whether the first two fields of any line parse to
// vertex IDs above 10^5, which would make the parser allocate a graph far
// larger than the input — a fuzz resource bomb, not a parser bug.
func hugeVertexIDs(input string) bool {
	for _, line := range strings.Split(input, "\n") {
		fields := strings.Fields(line)
		for i := 0; i < len(fields) && i < 2; i++ {
			if len(fields[i]) > 5 {
				return true
			}
		}
	}
	return false
}

// FuzzReadBinary checks the binary loader on arbitrary bytes: no panics,
// and either a validated graph or an error. Every input is read from
// memory and from a file, the loader's two paths, which must return the
// same graph or both fail.
func FuzzReadBinary(f *testing.F) {
	// Seed with a genuine dump.
	b := NewBuilder(4)
	b.AddTypedEdge(0, 1, 2, 1)
	b.AddTypedEdge(1, 2, 3, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the header-declared sizes' memory blowup by refusing huge
		// inputs up front: the loader allocates from the header, so very
		// small inputs with huge declared counts would try big
		// allocations. Guard as the loader's caller would.
		if len(data) > 1<<16 {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %x: %v", data, r)
			}
		}()
		g, err := readBoth(t, t.TempDir(), data)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted binary graph fails validation: %v", verr)
		}
	})
}

// FuzzEdgeListRoundTrip: any graph the text parser accepts must survive a
// write/read round trip unchanged.
func FuzzEdgeListRoundTrip(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("0 3 2.5\n3 0 1.5\n")
	f.Fuzz(func(t *testing.T, input string) {
		if hugeVertexIDs(input) {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(input), false, 0)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf, false, g.NumVertices())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g.NumVertices() != g2.NumVertices() || g.NumEdges() != g2.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d) vs (%d,%d)",
				g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
	})
}

// FuzzBuild checks Builder.Build against a reference: the edges in
// insertion order (both directions of an undirected edge, as AddEdge
// records them), stable-sorted by (source, destination), with all but the
// first of each (source, destination) group dropped under dedup. Every
// three input bytes are one edge: source, destination, and a byte whose
// low two bits pick AddEdge, AddWeightedEdge or AddTypedEdge and whose
// rest is the weight and type.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 0, 1, 5, 0, 1, 9, 2, 3, 0, 3, 2, 2}, false, false)
	f.Add(uint8(3), []byte{0, 1, 1, 0, 1, 5, 0, 1, 9, 1, 1, 2}, true, true)
	f.Add(uint8(16), bytes.Repeat([]byte{0, 3, 6, 0, 2, 7, 0, 3, 2}, 8), false, true)
	f.Fuzz(func(t *testing.T, nv uint8, data []byte, undirected, dedup bool) {
		n := 1 + int(nv%64)
		b := NewBuilder(n).SetUndirected(undirected).SetDedup(dedup)
		type rec struct {
			src VertexID
			e   Edge
		}
		var ref []rec
		weighted, typed := false, false
		for i := 0; i+2 < len(data); i += 3 {
			s, d, x := VertexID(int(data[i])%n), VertexID(int(data[i+1])%n), data[i+2]
			e := Edge{Dst: d, Weight: 1}
			switch x & 3 {
			case 1:
				e.Weight = float32(x >> 2)
				b.AddWeightedEdge(s, d, e.Weight)
				weighted = true
			case 2:
				e.Weight, e.Type = float32(x>>2), int32(x>>4)
				b.AddTypedEdge(s, d, e.Weight, e.Type)
				weighted, typed = true, true
			default:
				b.AddEdge(s, d)
			}
			ref = append(ref, rec{s, e})
			if undirected && s != d {
				ref = append(ref, rec{d, Edge{Dst: s, Weight: e.Weight, Type: e.Type}})
			}
		}
		slices.SortStableFunc(ref, func(a, b rec) int {
			if a.src != b.src {
				return int(a.src) - int(b.src)
			}
			return int(a.e.Dst) - int(b.e.Dst)
		})
		if dedup {
			ref = slices.CompactFunc(ref, func(a, b rec) bool { return a.src == b.src && a.e.Dst == b.e.Dst })
		}

		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != n || g.NumEdges() != int64(len(ref)) || g.Weighted() != weighted || g.Typed() != typed {
			t.Fatalf("built |V|=%d |E|=%d weighted=%v typed=%v, want %d %d %v %v",
				g.NumVertices(), g.NumEdges(), g.Weighted(), g.Typed(), n, len(ref), weighted, typed)
		}
		k := 0
		for v := 0; v < n; v++ {
			for i := 0; i < g.Degree(VertexID(v)); i++ {
				got, want := g.EdgeAt(VertexID(v), i), ref[k]
				if want.src != VertexID(v) || got != want.e {
					t.Fatalf("edge %d: %d->%+v, want %d->%+v", k, v, got, want.src, want.e)
				}
				k++
			}
		}
	})
}
