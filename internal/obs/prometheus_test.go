package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knightking/internal/core"
	"knightking/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds a registry in a fixed, fully deterministic state.
// The trials-per-step and query-batch families render the counter set's
// distributions, so they are seeded there, as the engine fills them.
func goldenRegistry() *Registry {
	reg := NewRegistry(nil)
	c := reg.Counters()
	c.Add(stats.Snapshot{
		EdgeProbEvals: 11, Trials: 12, PreAccepts: 5, AppendixHits: 2,
		Queries: 7, Messages: 3, BytesSent: 4096, Steps: 10,
		Restarts: 1, Terminations: 9,
		Checkpoints: 2, CheckpointBytes: 100, CheckpointNanos: 200,
		RestoreNanos: 0, ExchangeNanos: 300,
	})
	// The span is also the exchange_latency_ns observation; it wrote no
	// checkpoint, so CheckpointBytes and CheckpointWrite stay empty to pin
	// the rendering of an observation-free histogram.
	reg.OnSuperstep(core.SuperstepSpan{
		Rank: 0, Iteration: 3, LightMode: true, GlobalWalkers: 42,
		ComputeNanos: 10, ExchangeNanos: 20,
	})
	for _, v := range []int64{1, 1, 3} {
		c.StepTrials.Observe(v)
	}
	c.QueryBatch.Observe(128)
	return reg
}

// TestWriteMetricsGolden pins the exact Prometheus text exposition of a
// quiesced registry. Regenerate with `go test ./internal/obs -run Golden
// -update-golden` after an intentional format change.
func TestWriteMetricsGolden(t *testing.T) {
	var buf strings.Builder
	if err := WriteMetrics(&buf, goldenRegistry()); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	got := buf.String()

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics output diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteMetricsShape checks structural invariants independent of the
// golden bytes: every family has HELP/TYPE, the counter set is complete,
// and histogram bucket counts are cumulative and end at _count.
func TestWriteMetricsShape(t *testing.T) {
	var buf strings.Builder
	if err := WriteMetrics(&buf, goldenRegistry()); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := buf.String()

	for _, m := range counterMetrics {
		if !strings.Contains(out, "# TYPE kk_"+m.name+" counter\n") {
			t.Errorf("missing counter family %s", m.name)
		}
	}
	for _, g := range []string{"kk_superstep", "kk_active_walkers", "kk_light_mode"} {
		if !strings.Contains(out, "# TYPE "+g+" gauge\n") {
			t.Errorf("missing gauge %s", g)
		}
	}
	if !strings.Contains(out, "kk_superstep 3\n") {
		t.Error("superstep gauge not updated from span")
	}
	if !strings.Contains(out, "kk_active_walkers 42\n") {
		t.Error("active_walkers gauge not updated from span")
	}
	if !strings.Contains(out, "kk_light_mode 1\n") {
		t.Error("light_mode gauge not set")
	}

	// trials_per_step saw {1, 1, 3}: cumulative buckets 0, 2, 3, then +Inf.
	for _, line := range []string{
		`kk_trials_per_step_bucket{le="0"} 0`,
		`kk_trials_per_step_bucket{le="1"} 2`,
		`kk_trials_per_step_bucket{le="3"} 3`,
		`kk_trials_per_step_bucket{le="+Inf"} 3`,
		`kk_trials_per_step_sum 5`,
		`kk_trials_per_step_count 3`,
		// An empty histogram renders only the mandatory +Inf/sum/count.
		`kk_checkpoint_write_ns_bucket{le="+Inf"} 0`,
		`kk_checkpoint_write_ns_count 0`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q", line)
		}
	}
	if strings.Contains(out, `kk_checkpoint_write_ns_bucket{le="0"}`) {
		t.Error("empty histogram rendered finite buckets")
	}
}
