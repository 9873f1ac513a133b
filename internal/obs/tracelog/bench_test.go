package tracelog

import (
	"io"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/transport"
)

// BenchmarkEngineDeepWalk4NodesTraced mirrors core's
// BenchmarkEngineDeepWalk4Nodes with full causal tracing attached
// (collector as Observer + Tracer, default 1/64 journey sampling), so the
// enabled-tracing overhead is a direct A/B against that benchmark's
// numbers. Disabled-tracing overhead is pinned separately: the alloc
// guards and benchmarks in internal/core run with Config.Trace nil and
// their ceilings are unchanged by this PR.
func BenchmarkEngineDeepWalk4NodesTraced(b *testing.B) {
	g := gen.TruncatedPowerLaw(5000, 4, 500, 2.0, 1)
	a := alg.DeepWalk(20, false)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := New(Options{Ranks: 4, Job: "bench"})
		res, err := core.Run(core.Config{
			Graph:     g,
			Algorithm: a,
			NumNodes:  4,
			Seed:      uint64(i + 1),
			Observer:  tc,
			Trace:     tc,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Counters.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkEngineDeepWalk4NodesTraceOnly attaches only the Tracer hook
// (journey sampling, no Observer): it isolates the engine-side cost of
// tracing itself. The gap between this and the full Traced benchmark is
// the Observer side: per-step trial hooks, stage timing and span records.
func BenchmarkEngineDeepWalk4NodesTraceOnly(b *testing.B) {
	g := gen.TruncatedPowerLaw(5000, 4, 500, 2.0, 1)
	a := alg.DeepWalk(20, false)
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := New(Options{Ranks: 4, Job: "bench"})
		res, err := core.Run(core.Config{
			Graph:     g,
			Algorithm: a,
			NumNodes:  4,
			Seed:      uint64(i + 1),
			Trace:     tc,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Counters.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkRingPut measures the per-event cost of the hot ring insert
// (a sampled walker step): one mutex round trip and a struct store.
func BenchmarkRingPut(b *testing.B) {
	c := New(Options{SampleEvery: 1})
	ev := core.WalkerTraceEvent{Rank: 1, Iteration: 3, Walker: 64, Kind: core.WalkerStep, Vertex: 9, Step: 4, Trials: 2, Peer: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnWalkerEvent(ev)
	}
}

// BenchmarkExchangePeers measures the transport-side hook with an 8-peer
// message batch.
func BenchmarkExchangePeers(b *testing.B) {
	c := New(Options{Ranks: 8})
	msgs := make([]transport.Message, 64)
	for i := range msgs {
		msgs[i] = transport.Message{From: i % 8, Payload: make([]byte, 128)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveExchangePeers(0, 100*time.Microsecond, msgs)
	}
}

// BenchmarkWritePerfetto measures a full export of a saturated
// default-capacity ring.
func BenchmarkWritePerfetto(b *testing.B) {
	c := New(Options{Capacity: 1 << 14, SampleEvery: 1, Ranks: 4})
	for i := 1; len(c.buf) > int(c.next); i++ {
		for rank := 0; rank < 4; rank++ {
			c.OnSuperstep(core.SuperstepSpan{
				Rank: rank, Iteration: i, LocalWalkers: 10, GlobalWalkers: 40,
				ComputeNanos: 1e6, ExchangeNanos: 2e5, BarrierNanos: 1e5,
				GatherNanos: 4e5, MoveNanos: 4e5, UpdateNanos: 2e5,
			})
		}
		c.OnWalkerEvent(core.WalkerTraceEvent{Rank: 0, Iteration: i, Walker: 0, Kind: core.WalkerStep, Vertex: 1, Step: int32(i), Trials: 1, Peer: -1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WritePerfetto(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
