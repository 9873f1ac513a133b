// Chaos-recovery tests: the engine run under the network-chaos harness
// (internal/transport/chaos). Three golden properties:
//
//  1. Timing chaos (delays, slow peers) must not change one bit of walk
//     output — determinism lives in the per-walker RNG streams, not in
//     message timing.
//  2. A chaos disconnect mid-run must be recoverable: resuming from the
//     latest complete checkpoint reproduces the undisturbed run exactly.
//  3. Data corruption (truncated or bit-flipped frames) must surface as a
//     clean run error — never a panic, never silent divergence.
package checkpoint

import (
	"testing"
	"time"

	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/transport"
	"knightking/internal/transport/chaos"
)

// delayChaos perturbs timing only: random delays plus a persistent
// straggler, no data faults.
var delayChaos = chaos.Config{
	Seed:       1234,
	DelayProb:  0.4,
	MaxDelay:   400 * time.Microsecond,
	SlowEveryN: 3,
}

// chaosEndpoints builds an in-process group with every rank wrapped in cfg's
// chaos.
func chaosEndpoints(cfg chaos.Config) []transport.Endpoint {
	return chaos.AsEndpoints(chaos.WrapGroup(transport.NewInProcGroup(testNodes), cfg))
}

// TestChaosDelaysGoldenFirstOrder: DeepWalk with mid-run checkpointing under
// timing chaos is bit-identical to the undisturbed run.
func TestChaosDelaysGoldenFirstOrder(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	golden := mustRun(t, firstOrderCfg(g))

	cfg := firstOrderCfg(g)
	cfg.Checkpoint = newStore(t, &cfg, 4)
	cfg.Endpoints = chaosEndpoints(delayChaos)
	res := mustRun(t, cfg)
	assertSameWalk(t, golden, res)
	if res.Counters.Checkpoints == 0 {
		t.Error("chaos run committed no checkpoints; timing chaos was not exercised across a barrier")
	}
}

// TestChaosDelaysGoldenSecondOrder: same property for node2vec, whose
// two-exchange supersteps and parked walkers give timing chaos many more
// interleavings to perturb.
func TestChaosDelaysGoldenSecondOrder(t *testing.T) {
	g := gen.UniformDegree(48, 6, 7)
	golden := mustRun(t, secondOrderCfg(g))

	cfg := secondOrderCfg(g)
	cfg.Checkpoint = newStore(t, &cfg, 3)
	cfg.Endpoints = chaosEndpoints(delayChaos)
	assertSameWalk(t, golden, mustRun(t, cfg))
}

// chaosCrashAndResume is crashAndResume under timing chaos on every rank:
// rank 1 drops off the network at its failAt-th exchange while every
// rank's exchanges are randomly delayed.
func chaosCrashAndResume(t *testing.T, cfg core.Config, store *Store, failAt int) *core.Result {
	t.Helper()

	eps := transport.NewInProcGroup(testNodes)
	victimCfg := delayChaos
	victimCfg.DisconnectAt = failAt
	victim := chaos.Wrap(eps[1], victimCfg)
	wrapped := []transport.Endpoint{
		chaos.Wrap(eps[0], delayChaos),
		victim,
		chaos.Wrap(eps[2], delayChaos),
	}
	crashCfg := cfg
	crashCfg.Endpoints = wrapped
	crashCfg.Checkpoint = store
	if _, err := core.Run(crashCfg); err == nil {
		t.Fatal("run survived the chaos disconnect")
	}
	if victim.Exchanges() < failAt {
		t.Fatalf("walk finished after %d exchanges, before the disconnect at %d; lengthen it",
			victim.Exchanges(), failAt)
	}

	cp, err := Load(store.Dir())
	if err != nil {
		t.Fatalf("no complete checkpoint before the disconnect: %v", err)
	}
	t.Logf("disconnected at exchange %d, resuming from superstep %d", failAt, cp.Iteration)

	resumeCfg := cfg
	resumeCfg.Checkpoint = store
	resumeCfg.Restore = cp.RestoreState()
	return mustRun(t, resumeCfg)
}

// TestChaosDisconnectResumeFirstOrder: checkpoint recovery after a chaos
// disconnect reproduces the undisturbed DeepWalk run.
func TestChaosDisconnectResumeFirstOrder(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	golden := mustRun(t, firstOrderCfg(g))

	cfg := firstOrderCfg(g)
	store := newStore(t, &cfg, 4)
	assertSameWalk(t, golden, chaosCrashAndResume(t, cfg, store, 13))
}

// TestChaosDisconnectResumeSecondOrder: the same for node2vec, with walkers
// parked on remote adjacency queries in the recovered snapshot.
func TestChaosDisconnectResumeSecondOrder(t *testing.T) {
	g := gen.UniformDegree(48, 6, 7)
	golden := mustRun(t, secondOrderCfg(g))

	cfg := secondOrderCfg(g)
	store := newStore(t, &cfg, 3)
	assertSameWalk(t, golden, chaosCrashAndResume(t, cfg, store, 17))
}

// TestChaosCorruptionFailsCleanly: frame corruption must turn into a run
// error, not a panic or a silent wrong answer. Truncation hits the engine's
// length validation (count messages are exactly 8 bytes, query/response
// records have fixed strides); bit flips land anywhere, so the run is
// bounded by MaxIterations in case a flipped count merely delays
// convergence detection.
func TestChaosCorruptionFailsCleanly(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  chaos.Config
	}{
		{"truncate", chaos.Config{Seed: 5, TruncateProb: 1}},
		{"bitflip", chaos.Config{Seed: 5, BitFlipProb: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.UniformDegree(48, 6, 7)
			cfg := secondOrderCfg(g)
			cfg.Endpoints = chaosEndpoints(tc.cfg)
			cfg.MaxIterations = 100
			if _, err := core.Run(cfg); err == nil {
				t.Fatal("run under total frame corruption reported success")
			}
		})
	}
}
