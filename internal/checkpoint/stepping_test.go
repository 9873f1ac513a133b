// Crash-resume tests for the interleaved stepping pipeline: a resumed
// interleaved run must reproduce the scalar golden bit for bit, and the
// checkpoint format must be stepping-agnostic — a snapshot taken under one
// stepping strategy resumes cleanly under the other, because snapshots
// serialize engine state at superstep barriers where the two strategies
// are by construction in identical states.
package checkpoint

import (
	"testing"

	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/transport"
	"knightking/internal/transport/chaos"
)

// TestCrashResumeInterleavedFirstOrder crashes an interleaved run mid-walk
// and checks the resumed output against a scalar golden run. This pins
// both halves of the contract at once: resume correctness under batched
// stepping, and scalar/interleaved equivalence through a snapshot cycle.
func TestCrashResumeInterleavedFirstOrder(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	golden := firstOrderCfg(g)
	golden.Stepping = core.SteppingScalar
	want := mustRun(t, golden)

	cfg := firstOrderCfg(g)
	cfg.Stepping = core.SteppingInterleaved
	cfg.BatchSize = 3 // misaligned batches so snapshots land mid-batch-list
	store := newStore(t, &cfg, 4)
	resumed := crashAndResume(t, cfg, store, 13)
	assertSameWalk(t, want, resumed)
}

// TestCrashResumeInterleavedSecondOrder does the same through the
// park/query/resume machinery: the crash snapshot contains walkers parked
// on remote adjacency queries, which the interleaved resume must replay
// identically to the scalar golden.
func TestCrashResumeInterleavedSecondOrder(t *testing.T) {
	g := gen.UniformDegree(48, 6, 7)
	golden := secondOrderCfg(g)
	golden.Stepping = core.SteppingScalar
	want := mustRun(t, golden)

	cfg := secondOrderCfg(g)
	cfg.Stepping = core.SteppingInterleaved
	cfg.BatchSize = 5
	store := newStore(t, &cfg, 3)
	assertSameWalk(t, want, crashAndResume(t, cfg, store, 17))
}

// TestCrossSteppingResume crashes under interleaved stepping and resumes
// under scalar (and vice versa): the snapshot must carry no trace of the
// stepping strategy that produced it.
func TestCrossSteppingResume(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	want := mustRun(t, firstOrderCfg(g))

	for _, tc := range []struct {
		name           string
		crash, resumeS string
	}{
		{"interleaved-to-scalar", core.SteppingInterleaved, core.SteppingScalar},
		{"scalar-to-interleaved", core.SteppingScalar, core.SteppingInterleaved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := firstOrderCfg(g)
			cfg.Stepping = tc.crash
			store := newStore(t, &cfg, 4)

			eps := transport.NewInProcGroup(testNodes)
			victim := chaos.Wrap(eps[1], chaos.Config{DisconnectAt: 13})
			eps[1] = victim
			crashCfg := cfg
			crashCfg.Endpoints = eps
			crashCfg.Checkpoint = store
			if _, err := core.Run(crashCfg); err == nil {
				t.Fatal("run survived the injected crash")
			}
			if len(victim.Events()) == 0 {
				t.Fatal("walk finished before the injected fault")
			}

			cp, err := Load(store.Dir())
			if err != nil {
				t.Fatalf("no complete checkpoint before the crash: %v", err)
			}
			resumeCfg := firstOrderCfg(g)
			resumeCfg.Stepping = tc.resumeS
			resumeCfg.Restore = cp.RestoreState()
			assertSameWalk(t, want, mustRun(t, resumeCfg))
		})
	}
}
