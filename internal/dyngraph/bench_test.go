package dyngraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
)

// benchBatches pre-generates valid upsert batches: sources drawn from a
// fixed pool of the first `pool` vertices (so the affected-vertex set is
// the same across graph sizes), destinations anywhere in [0, n).
func benchBatches(n, pool, batches, size int, seed int64) [][]Delta {
	r := rand.New(rand.NewSource(seed))
	out := make([][]Delta, batches)
	for b := range out {
		batch := make([]Delta, size)
		for i := range batch {
			batch[i] = Delta{
				Src:    graph.VertexID(r.Intn(pool)),
				Dst:    graph.VertexID(r.Intn(n)),
				Weight: float32(r.Float64()*9 + 1),
			}
		}
		out[b] = batch
	}
	return out
}

// BenchmarkIngest measures end-to-end Apply cost — delta validation,
// segment replay, incremental alias-row rebuilds, page cloning, epoch
// publication — per ingested edge. The sweep over |V| with a fixed
// affected-vertex pool is the O(affected-vertex) demonstration: if any
// ingest step rebuilt full-graph state (sampler tables, content hash),
// ns/edge would scale with |V|; incrementally maintained, it stays flat.
// It compacts every 64 batches, so it cannot see how Apply's cost grows
// with the pending overlay; BenchmarkApplyPending measures that.
func BenchmarkIngest(b *testing.B) {
	const (
		batchSize = 256
		pool      = 512
	)
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			base := gen.WithUniformWeights(gen.UniformDegree(n, 8, 131), 1, 5, 132)
			batches := benchBatches(n, pool, 64, batchSize, 133)
			d, err := New(base, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Apply(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
				// Keep the overlay bounded so the benchmark measures steady
				// ingest, not unbounded overlay growth.
				if (i+1)%64 == 0 {
					b.StopTimer()
					if _, err := d.Compact(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/edge")
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// pendingGraph returns a DynGraph over a |V|=n weighted graph of degree 8
// that has ingested pending deltas in uniform-source 256-delta upsert
// batches without compacting.
func pendingGraph(tb testing.TB, n, pending int) *DynGraph {
	tb.Helper()
	base := gen.WithUniformWeights(gen.UniformDegree(n, 8, 161), 1, 5, 162)
	d, err := New(base, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range benchBatches(n, n, pending/256, 256, 163) {
		if _, err := d.Apply(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// BenchmarkApplyPending prices one 256-delta uniform-source Apply on a
// 100k-vertex weighted graph of degree 8 against the number of deltas
// already pending (ingested since the last compaction). Every iteration
// derives from the same prepared epoch — the published epoch is the
// whole writer state, so putting it back undoes the Apply — and thus
// measures publication at exactly that overlay size. Publication is
// O(batch): ns/op and B/op stay flat across the sweep.
func BenchmarkApplyPending(b *testing.B) {
	const n = 100_000
	for _, pending := range []int{0, 4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			d := pendingGraph(b, n, pending)
			start := d.Epoch()
			batches := benchBatches(n, n, 64, 256, 164)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Apply(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
				d.cur.Store(start)
			}
		})
	}
}

// TestApplyAllocsFlatInPending bounds what an Apply allocates by the
// batch, not by the overlay it lands on: the same fixed batches allocate
// at most twice as many bytes on top of 64k pending deltas as on a fresh
// epoch. A publish that copied the whole overlay per batch would
// allocate several times more at 64k pending.
func TestApplyAllocsFlatInPending(t *testing.T) {
	const n = 20_000
	batches := benchBatches(n, n, 8, 256, 165)
	allocated := func(pending int) uint64 {
		d := pendingGraph(t, n, pending)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, batch := range batches {
			if _, err := d.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fresh, loaded := allocated(0), allocated(65536)
	t.Logf("bytes per Apply: %d at 0 pending, %d at 64k pending", fresh/uint64(len(batches)), loaded/uint64(len(batches)))
	if loaded > 2*fresh {
		t.Fatalf("Apply allocates %d bytes at 64k pending deltas, over twice the %d at 0", loaded, fresh)
	}
}

// BenchmarkSamplerUpdate isolates the sampler-maintenance share of
// ingest: identical Apply workload on an unweighted graph (no tables to
// maintain) would not represent weighted cost, so instead it reports
// the per-edge cost of Apply on a weighted graph where every batch
// touches few vertices with high degree — the worst case for the
// O(degree) table rebuild.
func BenchmarkSamplerUpdate(b *testing.B) {
	const n = 20_000
	base := gen.WithUniformWeights(gen.Hotspot(n, 8, 16, 2000, 137), 1, 5, 138)
	r := rand.New(rand.NewSource(139))
	batches := make([][]Delta, 64)
	for i := range batches {
		batch := make([]Delta, 64)
		for j := range batch {
			batch[j] = Delta{
				Src:    graph.VertexID(r.Intn(16)), // always a hub
				Dst:    graph.VertexID(r.Intn(n)),
				Weight: float32(r.Float64()*9 + 1),
			}
		}
		batches[i] = batch
	}
	d, err := New(base, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Apply(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		if (i+1)%64 == 0 {
			b.StopTimer()
			if _, err := d.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/edge")
}

// BenchmarkCompact measures folding a 16k-delta overlay over a 100k-
// vertex graph into a fresh CSR (materialization + sampler-store fold +
// fingerprint).
func BenchmarkCompact(b *testing.B) {
	const n = 100_000
	base := gen.WithUniformWeights(gen.UniformDegree(n, 8, 141), 1, 5, 142)
	batches := benchBatches(n, n, 16, 1024, 143)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := New(base, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if _, err := d.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := d.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOnOverlayEpoch prices a walk on an ingest epoch against
// the same walk on a plain CSR: a biased DeepWalk job of 5k walkers × 40
// steps on 2 ranks × 1 worker over a 100k-vertex power-law graph (the
// kkserve request shape), at pending=0 (epoch 0, plain CSR) and after
// sixteen 256-delta batches with half of every batch on the 16 top-degree
// hubs. Every step resolves its vertex through the overlay lookup, so the
// ns/step ratio of the two is what an overlay costs the step kernel. The
// metric is walk time (Result.Duration) per step, set-up excluded, so a
// change in how long the engine takes to set up leaves the ratio alone.
func BenchmarkEngineOnOverlayEpoch(b *testing.B) {
	const (
		n       = 100_000
		walkers = 5000
		length  = 40
		batches = 16
		size    = 256
		hubs    = 16
	)
	base := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(n, 4, 1000, 2.0, 151), 16, 2.0, 151)
	byDegree := make([]graph.VertexID, n)
	for i := range byDegree {
		byDegree[i] = graph.VertexID(i)
	}
	sort.Slice(byDegree, func(i, j int) bool { return base.Degree(byDegree[i]) > base.Degree(byDegree[j]) })
	for _, pending := range []int{0, batches} {
		b.Run(fmt.Sprintf("pending=%dx%d", pending, size), func(b *testing.B) {
			r := rand.New(rand.NewSource(152))
			d, err := New(base, Options{})
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < pending; k++ {
				batch := make([]Delta, size)
				for i := range batch {
					src := graph.VertexID(r.Intn(n))
					if i%2 == 0 {
						src = byDegree[r.Intn(hubs)]
					}
					batch[i] = Delta{Src: src, Dst: graph.VertexID(r.Intn(n)), Weight: float32(1 + 15*r.Float64())}
				}
				if _, err := d.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			ep := d.Epoch()
			var steps int64
			var walk time.Duration
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Graph: ep.View(), Algorithm: alg.DeepWalk(length, true), Samplers: ep,
					NumNodes: 2, Workers: 1, NumWalkers: walkers, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Counters.Steps
				walk += res.Duration
			}
			b.ReportMetric(float64(walk.Nanoseconds())/float64(steps), "ns/step")
		})
	}
}

// BenchmarkNew wraps the kkperf kkserve graph (100k weighted vertices,
// about 2.16M edges) as a dynamic graph: epoch 0's alias rows and its
// fingerprint, the work kkserve does per graph before it serves.
func BenchmarkNew(b *testing.B) {
	base := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(100000, 4, 1000, 2.0, 3), 16, 2.0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(base, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*base.NumEdges()), "ns/edge")
}
