package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
)

// serveShape is the kkperf kkserve graph: a weighted truncated power law
// of 100k vertices with cap 1000, about 2.16M stored edges. The loading
// benchmarks below share one copy.
var serveShape = sync.OnceValue(func() *graph.Graph {
	return gen.WithPowerLawWeights(gen.TruncatedPowerLaw(100000, 4, 1000, 2.0, 3), 16, 2.0, 3)
})

// binarySize is the length of g's binary CSR file: a 28-byte header, the
// offsets, and four bytes per edge for each stored edge array.
func binarySize(g *graph.Graph) int64 {
	arrays := int64(1)
	if g.Weighted() {
		arrays++
	}
	if g.Typed() {
		arrays++
	}
	return 28 + 8*int64(g.NumVertices()+1) + 4*arrays*g.NumEdges()
}

func reportPerEdge(b *testing.B, g *graph.Graph) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
}

// BenchmarkFingerprint hashes the kkserve graph, which kkserve does at
// every start and a compaction does under the writer lock. MB/s counts
// the bytes of the CSR arrays hashed.
func BenchmarkFingerprint(b *testing.B) {
	g := serveShape()
	b.SetBytes(binarySize(g))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= graph.Fingerprint(g)
	}
	reportPerEdge(b, g)
	_ = sink
}

// BenchmarkWriteBinary serializes the kkserve graph into memory.
func BenchmarkWriteBinary(b *testing.B) {
	g := serveShape()
	var buf bytes.Buffer
	buf.Grow(int(binarySize(g)))
	b.SetBytes(binarySize(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := graph.WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
	reportPerEdge(b, g)
}

// BenchmarkReadBinary loads the kkserve graph's binary CSR file: "file"
// through graph.Open, as kkserve does, and "memory" from a bytes.Reader,
// a reader that is not a file.
func BenchmarkReadBinary(b *testing.B) {
	g := serveShape()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "serve.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	load := map[string]func() (*graph.Graph, error){
		"file":   func() (*graph.Graph, error) { return graph.Open(path, true, false) },
		"memory": func() (*graph.Graph, error) { return graph.ReadBinary(bytes.NewReader(buf.Bytes())) },
	}
	for _, name := range []string{"file", "memory"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := load[name](); err != nil {
					b.Fatal(err)
				}
			}
			reportPerEdge(b, g)
		})
	}
}
