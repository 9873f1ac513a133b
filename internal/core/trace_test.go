package core_test

// Causal-tracing passivity guard: enabling Config.Trace (and the full
// observer+tracer collector) must leave walk output bit-identical, because
// trace hooks fire strictly after every RNG decision of the step they
// describe. Companion to obs's TestTelemetryDoesNotChangeWalkOutput.

import (
	"sync"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/obs/tracelog"
	"knightking/internal/transport"
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
// It also pins which journeys are recorded: exactly the walkers the
// Tracer samples, each to its finish, across every migration between the
// two ranks, whether a migrating walker moves as an object or, with the
// endpoints' LocalSender hidden, is encoded and decoded.
func TestTraceSampledJourneyOrdered(t *testing.T) {
	for _, wire := range []bool{false, true} {
		name := "object"
		if wire {
			name = "wire"
		}
		t.Run(name, func(t *testing.T) { checkSampledJourneys(t, wire) })
	}
}

func checkSampledJourneys(t *testing.T, wire bool) {
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
	if wire {
		eps := transport.NewInProcGroup(2)
		for i, ep := range eps {
			eps[i] = struct{ transport.Endpoint }{ep}
		}
		cfg.NumNodes, cfg.Endpoints = 0, eps
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Counters.Messages == 0 {
		t.Fatal("no walker migrated between the ranks")
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
		if !tc.TraceWalker(ev.Walker) {
			t.Fatalf("journey event for unsampled walker %d", ev.Walker)
		}
		if ev.Kind == tracelog.KindWalkerFinish {
			finished[ev.Walker] = true
		}
	}
	for id := int64(0); id < int64(g.NumVertices()); id++ {
		if tc.TraceWalker(id) && !finished[id] {
			t.Errorf("sampled walker %d has no finish event", id)
		}
	}
}

// TestTracePerRankTracers runs three ranks of one in-process group, each
// with its own Tracer: one sampling every 4th walker, one with tracing
// off and one sampling every 3rd. Walkers migrate between them as
// objects, so each rank must decide a received walker's sampling again
// under its own Tracer: a rank without one records nothing and does not
// fault, and a rank with one records only the walkers it samples.
func TestTracePerRankTracers(t *testing.T) {
	g := gen.UniformDegree(120, 5, 6)
	tracers := []*tracelog.Collector{
		tracelog.New(tracelog.Options{SampleEvery: 4, Ranks: 3, Job: "rank0"}),
		nil,
		tracelog.New(tracelog.Options{SampleEvery: 3, Ranks: 3, Job: "rank2"}),
	}
	eps := transport.NewInProcGroup(3)
	results := make([]*core.Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := core.Config{Graph: g, Algorithm: alg.DeepWalk(20, false), Workers: 2, Seed: 5}
			if tracers[i] != nil {
				cfg.Trace = tracers[i]
			}
			results[i], errs[i] = core.RunNode(cfg, eps[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	if results[1].Counters.Messages == 0 {
		t.Fatal("no walker migrated to the untraced rank")
	}
	for rank, tc := range tracers {
		if tc == nil {
			continue
		}
		events, _ := tc.Events()
		journeys := 0
		for _, ev := range events {
			if ev.Walker < 0 {
				continue
			}
			journeys++
			if int(ev.Rank) != rank {
				t.Fatalf("rank %d's tracer got an event of rank %d", rank, ev.Rank)
			}
			if !tc.TraceWalker(ev.Walker) {
				t.Fatalf("rank %d's tracer got an event of walker %d, which it does not sample", rank, ev.Walker)
			}
		}
		if journeys == 0 {
			t.Fatalf("rank %d's tracer recorded no journey", rank)
		}
	}
}
