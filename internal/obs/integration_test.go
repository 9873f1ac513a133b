package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/checkpoint"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
)

func node2vecConfig(g *graph.Graph) core.Config {
	return core.Config{
		Graph: g,
		Algorithm: alg.Node2Vec(alg.Node2VecParams{
			P: 2, Q: 0.5, Length: 24, LowerBound: true, FoldOutlier: true,
		}),
		NumNodes:    3,
		Workers:     2,
		Seed:        7,
		RecordPaths: true,
	}
}

// TestTelemetryDoesNotChangeWalkOutput runs the same multi-rank node2vec
// walk with telemetry off and on and requires bit-identical paths: the
// observer must never touch a walker's RNG stream.
func TestTelemetryDoesNotChangeWalkOutput(t *testing.T) {
	g := gen.UniformDegree(120, 6, 3)

	base, err := core.Run(node2vecConfig(g))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	reg := NewRegistry(nil)
	var spanBuf bytes.Buffer
	reg.SetSpanWriter(&spanBuf)
	cfg := node2vecConfig(g)
	cfg.Counters = reg.Counters()
	cfg.Observer = reg
	observed, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}

	assertSamePaths(t, "observed", base.Paths, observed.Paths)
	if base.Iterations != observed.Iterations {
		t.Errorf("iterations %d != %d", base.Iterations, observed.Iterations)
	}

	// Every rank must have emitted a span for every superstep.
	spans := reg.Spans()
	want := 3 * observed.Iterations
	if len(spans) != want {
		t.Fatalf("got %d spans, want %d (3 ranks x %d supersteps)", len(spans), want, observed.Iterations)
	}
	seen := make(map[[2]int]bool, want)
	for _, s := range spans {
		if s.Rank < 0 || s.Rank >= 3 || s.Iteration < 1 || s.Iteration > observed.Iterations {
			t.Fatalf("span out of range: %+v", s)
		}
		key := [2]int{s.Rank, s.Iteration}
		if seen[key] {
			t.Fatalf("duplicate span for rank %d superstep %d", s.Rank, s.Iteration)
		}
		seen[key] = true
		if s.ComputeNanos < 0 || s.ExchangeNanos < 0 || s.BarrierNanos < 0 || s.CheckpointNanos < 0 {
			t.Fatalf("negative phase duration: %+v", s)
		}
	}

	// The span writer stream must be valid JSONL, one object per span.
	sc := bufio.NewScanner(&spanBuf)
	var lines int
	for sc.Scan() {
		var s core.SuperstepSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d not JSON: %v: %s", lines+1, err, sc.Text())
		}
		lines++
	}
	if lines != want {
		t.Errorf("span writer wrote %d lines, want %d", lines, want)
	}

	// The engine histograms the walk exercises must be non-empty.
	for _, h := range []*Histogram{reg.TrialsPerStep, reg.QueryBatch} {
		if h.Snapshot().Count == 0 {
			t.Errorf("histogram %s is empty", h.name)
		}
	}
	// Exchange latency is derived from the spans: one per rank-superstep.
	if n := reg.ExchangeLatency.Snapshot().Count; n != int64(want) {
		t.Errorf("exchange_latency_ns count %d, want one per span (%d)", n, want)
	}
	// The engine counts one trials-per-step observation per step.
	ts := reg.TrialsPerStep.Snapshot()
	if steps := observed.Counters.Steps; ts.Count != steps {
		t.Errorf("trials_per_step count %d vs %d steps", ts.Count, steps)
	}
	if skew := reg.StragglerSkew(); skew < 1 {
		t.Errorf("straggler skew = %v, want >= 1", skew)
	}
}

// TestCheckpointTelemetry observes a checkpointed run and requires the
// span-derived checkpoint histograms to count one observation per written
// segment, summing to the bytes the counters report.
func TestCheckpointTelemetry(t *testing.T) {
	g := gen.UniformDegree(100, 6, 5)
	reg := NewRegistry(nil)

	store, err := checkpoint.NewStore(t.TempDir(), 4, checkpoint.Meta{
		Seed: 7, NumWalkers: 100, NumVertices: 100, Algorithm: "node2vec",
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}

	cfg := node2vecConfig(g)
	cfg.Counters = reg.Counters()
	cfg.Observer = reg
	cfg.Checkpoint = store
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Counters.Checkpoints == 0 {
		t.Fatal("run committed no checkpoints; lower the interval")
	}

	cb := reg.CheckpointBytes.Snapshot()
	if segments := res.Counters.Checkpoints * 3; cb.Count != segments || cb.Sum != res.Counters.CheckpointBytes {
		t.Errorf("checkpoint_segment_bytes count=%d sum=%d, counters say %d bytes",
			cb.Count, cb.Sum, res.Counters.CheckpointBytes)
	}
	if reg.CheckpointWrite.Snapshot().Count != cb.Count {
		t.Errorf("checkpoint_write_ns count %d != segment count %d",
			reg.CheckpointWrite.Snapshot().Count, cb.Count)
	}
	var ckptSpans int
	for _, s := range reg.Spans() {
		if s.CheckpointNanos > 0 {
			ckptSpans++
		}
	}
	if ckptSpans == 0 {
		t.Error("no span recorded a checkpoint phase")
	}

	// The registry report fields survive the round trip into stats.Report.
	rep := fmt.Sprintf("%v", reg.StragglerSkew())
	if rep == "0" {
		t.Error("straggler skew missing after checkpointed run")
	}
}

// assertSamePaths requires bit-identical walks.
func assertSamePaths(t *testing.T, name string, want, got [][]graph.VertexID) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: path count %d != %d", name, len(got), len(want))
	}
	for w := range want {
		a, b := want[w], got[w]
		if len(a) != len(b) {
			t.Fatalf("%s: walker %d: length %d != %d", name, w, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: walker %d diverged at step %d: %d != %d", name, w, i, b[i], a[i])
			}
		}
	}
}
