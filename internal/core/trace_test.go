package core_test

// Causal-tracing passivity guard: enabling Config.Trace (and the full
// observer+tracer collector) must leave walk output bit-identical, because
// trace hooks fire strictly after every RNG decision of the step they
// describe. Companion to obs's TestTelemetryDoesNotChangeWalkOutput.

import (
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/obs/tracelog"
)

func tracedConfig(g *graph.Graph) core.Config {
	return core.Config{
		Graph: g,
		Algorithm: alg.Node2Vec(alg.Node2VecParams{
			P: 2, Q: 0.5, Length: 24, LowerBound: true, FoldOutlier: true,
		}),
		NumNodes:    3,
		Workers:     2,
		Seed:        11,
		RecordPaths: true,
	}
}

// TestTraceOnOffBitIdentical runs the same multi-rank node2vec walk with
// tracing off and fully on (collector as Observer + Tracer) and requires
// bit-identical paths, then sanity-checks the trace actually captured the
// run: superstep spans from every rank and at least one sampled walker
// journey with rejection trial counts.
func TestTraceOnOffBitIdentical(t *testing.T) {
	g := gen.UniformDegree(150, 6, 9)

	base, err := core.Run(tracedConfig(g))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	tc := tracelog.New(tracelog.Options{SampleEvery: 16, Ranks: 3, Job: "bitident"})
	cfg := tracedConfig(g)
	cfg.Observer = tc
	cfg.Trace = tc
	traced, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}

	if len(base.Paths) != len(traced.Paths) {
		t.Fatalf("path count %d != %d", len(base.Paths), len(traced.Paths))
	}
	for w := range base.Paths {
		a, b := base.Paths[w], traced.Paths[w]
		if len(a) != len(b) {
			t.Fatalf("walker %d: length %d != %d", w, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("walker %d diverged at step %d: %d != %d", w, i, a[i], b[i])
			}
		}
	}
	if base.Iterations != traced.Iterations {
		t.Errorf("iterations %d != %d", base.Iterations, traced.Iterations)
	}
	// Compare the counters; ExchangeNanos is wall-clock, not walk output.
	// Traffic must match too: tracing never wraps the endpoint, so local
	// deliveries stay zero-copy.
	a, b := base.Counters, traced.Counters
	a.ExchangeNanos, b.ExchangeNanos = 0, 0
	if a != b {
		t.Errorf("counters diverged:\n%+v\n%+v", a, b)
	}

	events, _ := tc.Events()
	supersteps := map[int16]int{}
	journeys := 0
	trialed := 0
	for _, ev := range events {
		switch {
		case ev.Kind == tracelog.KindSuperstep:
			supersteps[ev.Rank]++
		case ev.Walker >= 0:
			journeys++
			if ev.Walker%16 != 0 {
				t.Fatalf("journey event for unsampled walker %d", ev.Walker)
			}
			if ev.Kind == tracelog.KindWalkerStep && ev.B >= 1 {
				trialed++
			}
		}
	}
	for r := int16(0); r < 3; r++ {
		if supersteps[r] != traced.Iterations {
			t.Errorf("rank %d recorded %d superstep spans, want %d", r, supersteps[r], traced.Iterations)
		}
	}
	if journeys == 0 {
		t.Error("trace captured no walker journey events")
	}
	if trialed == 0 {
		t.Error("no step event carried a rejection trial count")
	}
}

// TestTraceSampledJourneyOrdered pins the per-walker causal ordering the
// Perfetto export relies on: a sampled walker's step counter never
// decreases across its journey events (each walker is stepped by one
// goroutine at a time, and the ring preserves arrival order per walker).
func TestTraceSampledJourneyOrdered(t *testing.T) {
	g := gen.UniformDegree(120, 5, 4)
	tc := tracelog.New(tracelog.Options{SampleEvery: 8, Ranks: 2, Job: "ordered"})
	cfg := core.Config{
		Graph:     g,
		Algorithm: alg.DeepWalk(20, false),
		NumNodes:  2,
		Workers:   2,
		Seed:      5,
		Observer:  tc,
		Trace:     tc,
	}
	if _, err := core.Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	events, _ := tc.Events()
	lastStep := map[int64]int32{}
	finished := map[int64]bool{}
	for _, ev := range events {
		if ev.Walker < 0 {
			continue
		}
		if finished[ev.Walker] {
			t.Fatalf("walker %d has events after finishing", ev.Walker)
		}
		if ev.Step < lastStep[ev.Walker] {
			t.Fatalf("walker %d step went backwards: %d after %d", ev.Walker, ev.Step, lastStep[ev.Walker])
		}
		lastStep[ev.Walker] = ev.Step
		if ev.Kind == tracelog.KindWalkerFinish {
			finished[ev.Walker] = true
		}
	}
	if len(finished) == 0 {
		t.Error("no sampled walker finished")
	}
}
