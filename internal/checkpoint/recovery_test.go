// Engine-level recovery tests: a run killed mid-flight by an injected
// transport fault, resumed from the latest complete checkpoint, must
// reproduce the uninterrupted run's results bit for bit. These live here
// rather than in internal/core because they exercise the full stack —
// engine, on-disk store, and fault injection — and core cannot import
// this package.
package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/stats"
	"knightking/internal/transport"
	"knightking/internal/transport/chaos"
)

const testNodes = 3

// firstOrderCfg is a DeepWalk run long enough to span several checkpoint
// intervals across three nodes.
func firstOrderCfg(g *graph.Graph) core.Config {
	return core.Config{
		Graph:       g,
		Algorithm:   alg.DeepWalk(24, false),
		NumNodes:    testNodes,
		Workers:     2,
		Seed:        7,
		RecordPaths: true,
		CountVisits: true,
	}
}

// secondOrderCfg is a node2vec run with the lower-bound and outlier-folding
// optimizations on, so checkpoints must capture walkers parked mid-step on
// remote state queries (pending darts).
func secondOrderCfg(g *graph.Graph) core.Config {
	return core.Config{
		Graph: g,
		Algorithm: alg.Node2Vec(alg.Node2VecParams{
			P: 2, Q: 0.5, Length: 12, LowerBound: true, FoldOutlier: true,
		}),
		NumNodes:    testNodes,
		Workers:     2,
		Seed:        11,
		RecordPaths: true,
		CountVisits: true,
	}
}

func mustRun(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameWalk asserts two runs produced identical walk output and did
// identical sampling work. Transport-level counters (Messages, BytesSent)
// and Iterations are excluded: a resumed run re-delivers parked walkers'
// queries one superstep later, shifting traffic and possibly the superstep
// count by one without affecting any walk output.
func assertSameWalk(t *testing.T, want, got *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Paths, got.Paths) {
		t.Error("walker paths differ")
	}
	if !reflect.DeepEqual(want.Visits, got.Visits) {
		t.Error("visit counts differ")
	}
	if !reflect.DeepEqual(want.Lengths.State(), got.Lengths.State()) {
		t.Error("length histograms differ")
	}
	w, g := want.Counters, got.Counters
	for _, c := range []struct {
		name      string
		want, got int64
	}{
		{"Steps", w.Steps, g.Steps},
		{"Terminations", w.Terminations, g.Terminations},
		{"Restarts", w.Restarts, g.Restarts},
		{"Trials", w.Trials, g.Trials},
		{"EdgeProbEvals", w.EdgeProbEvals, g.EdgeProbEvals},
		{"PreAccepts", w.PreAccepts, g.PreAccepts},
		{"AppendixHits", w.AppendixHits, g.AppendixHits},
		{"Queries", w.Queries, g.Queries},
	} {
		if c.want != c.got {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if d := got.Iterations - want.Iterations; d < -1 || d > 1 {
		t.Errorf("Iterations = %d, want %d ± 1", got.Iterations, want.Iterations)
	}
}

// newStore builds a store whose Meta matches cfg the way kkwalk would.
func newStore(t *testing.T, cfg *core.Config, every int) *Store {
	t.Helper()
	walkers := cfg.NumWalkers
	if walkers <= 0 {
		walkers = cfg.Graph.NumVertices()
	}
	s, err := NewStore(t.TempDir(), every, Meta{
		Seed:        cfg.Seed,
		NumWalkers:  uint64(walkers),
		NumVertices: uint64(cfg.Graph.NumVertices()),
		Algorithm:   cfg.Algorithm.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crashAndResume runs cfg with an injected rank death at the failAt-th
// exchange, then resumes from the latest complete checkpoint and returns
// the resumed run's result.
func crashAndResume(t *testing.T, cfg core.Config, store *Store, failAt int) *core.Result {
	t.Helper()

	eps := transport.NewInProcGroup(cfg.NumNodes)
	victim := chaos.Wrap(eps[1], chaos.Config{DisconnectAt: failAt})
	eps[1] = victim
	crashCfg := cfg
	crashCfg.Endpoints = eps
	crashCfg.Checkpoint = store
	if _, err := core.Run(crashCfg); err == nil {
		t.Fatal("run survived the injected crash")
	}
	if len(victim.Events()) == 0 {
		t.Fatalf("walk finished before the injected fault at exchange %d; lengthen it", failAt)
	}

	cp, err := Load(store.Dir())
	if err != nil {
		t.Fatalf("no complete checkpoint before the crash: %v", err)
	}
	if err := cp.Validate(Meta{
		Seed:        cfg.Seed,
		NumWalkers:  uint64(cfg.Graph.NumVertices()), // NumWalkers=0 defaults to |V|
		NumVertices: uint64(cfg.Graph.NumVertices()),
		Algorithm:   cfg.Algorithm.Name,
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("crashed after exchange %d, resuming from superstep %d", victim.Exchanges(), cp.Iteration)

	resumeCfg := cfg
	resumeCfg.Checkpoint = store // keep checkpointing across the resume
	resumeCfg.Restore = cp.RestoreState()
	return mustRun(t, resumeCfg)
}

func TestCheckpointingDoesNotPerturbRun(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	golden := mustRun(t, firstOrderCfg(g))

	cfg := firstOrderCfg(g)
	cfg.Checkpoint = newStore(t, &cfg, 4)
	assertSameWalk(t, golden, mustRun(t, cfg))
}

func TestCrashResumeFirstOrder(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	golden := mustRun(t, firstOrderCfg(g))

	cfg := firstOrderCfg(g)
	store := newStore(t, &cfg, 4)
	// One exchange per superstep plus one per checkpoint barrier: exchange
	// 13 is superstep ~11, past the committed checkpoints at 4 and 8.
	resumed := crashAndResume(t, cfg, store, 13)
	assertSameWalk(t, golden, resumed)
	if resumed.Counters.Checkpoints == 0 {
		t.Error("resumed run reports no committed checkpoints")
	}
	if resumed.Counters.RestoreNanos == 0 {
		t.Error("resumed run reports no restore time")
	}
}

func TestCrashResumeSecondOrder(t *testing.T) {
	g := gen.UniformDegree(48, 6, 7)
	golden := mustRun(t, secondOrderCfg(g))

	cfg := secondOrderCfg(g)
	store := newStore(t, &cfg, 3)
	// Two exchanges per superstep plus one per checkpoint barrier: exchange
	// 17 lands around superstep 8, past the checkpoints at 3 and 6, with
	// walkers parked on remote adjacency queries in the snapshot.
	assertSameWalk(t, golden, crashAndResume(t, cfg, store, 17))
}

// TestCrashResumeSecondOrderTwoRanks crashes a 2-rank node2vec run with
// thousands of walkers, so every checkpoint holds hundreds of walkers parked
// on in-flight state queries. The resumed ranks must rebuild their
// parked-walker tables from the snapshot and re-send those queries; a
// walker missing from the table makes the first resumed phase C fail on its
// response.
func TestCrashResumeSecondOrderTwoRanks(t *testing.T) {
	g := gen.TruncatedPowerLaw(4000, 4, 200, 2.0, 5)
	cfg := secondOrderCfg(g)
	cfg.NumNodes = 2
	golden := mustRun(t, cfg)

	store := newStore(t, &cfg, 3)
	// Exchange 17 lands around superstep 7, past the checkpoints at 3 and 6.
	assertSameWalk(t, golden, crashAndResume(t, cfg, store, 17))
}

// TestResumeFromFallbackCheckpoint corrupts the newest checkpoint of a
// completed run and resumes from the one Load falls back to; replaying the
// longer tail must still reproduce the full run's output exactly.
func TestResumeFromFallbackCheckpoint(t *testing.T) {
	g := gen.UniformDegree(48, 6, 7)
	cfg := secondOrderCfg(g)
	store := newStore(t, &cfg, 3)
	cfg.Checkpoint = store
	golden := mustRun(t, cfg)

	newest, err := Load(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	// Torn write: truncate one segment of the newest checkpoint.
	seg := filepath.Join(ckptDir(store.Dir(), newest.Iteration), "rank-00002.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	fallback, err := Load(store.Dir())
	if err != nil {
		t.Fatalf("Load did not fall back past the torn checkpoint: %v", err)
	}
	if fallback.Iteration >= newest.Iteration {
		t.Fatalf("fallback iteration %d not older than torn %d", fallback.Iteration, newest.Iteration)
	}

	resumeCfg := secondOrderCfg(g)
	resumeCfg.Restore = fallback.RestoreState()
	assertSameWalk(t, golden, mustRun(t, resumeCfg))
}

// TestRestoreRejectsMismatchedConfig exercises the engine's own validation
// behind Checkpoint.Validate: restoring into a run with a different seed or
// walker count must fail, not silently diverge.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	cfg := firstOrderCfg(g)
	store := newStore(t, &cfg, 4)
	cfg.Checkpoint = store
	mustRun(t, cfg)

	cp, err := Load(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	badSeed := firstOrderCfg(g)
	badSeed.Seed = 999
	badSeed.Restore = cp.RestoreState()
	if _, err := core.Run(badSeed); err == nil {
		t.Error("restore with a different seed accepted")
	}
	badWalkers := firstOrderCfg(g)
	badWalkers.NumWalkers = 7
	badWalkers.Restore = cp.RestoreState()
	if _, err := core.Run(badWalkers); err == nil {
		t.Error("restore with a different walker count accepted")
	}
	badRanks := firstOrderCfg(g)
	badRanks.NumNodes = testNodes + 1
	badRanks.Restore = cp.RestoreState()
	if _, err := core.Run(badRanks); err == nil {
		t.Error("restore with a different rank count accepted")
	}
}

// TestCheckpointMetrics asserts the stats plumbing kkwalk prints from.
func TestCheckpointMetrics(t *testing.T) {
	g := gen.UniformDegree(60, 6, 3)
	cfg := firstOrderCfg(g)
	store := newStore(t, &cfg, 4)
	cfg.Checkpoint = store
	var counters stats.Counters
	cfg.Counters = &counters
	res := mustRun(t, cfg)

	if res.Counters.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2 over %d supersteps", res.Counters.Checkpoints, res.Iterations)
	}
	if res.Counters.CheckpointBytes == 0 || res.Counters.CheckpointNanos == 0 {
		t.Fatalf("checkpoint cost counters empty: %+v", res.Counters)
	}
	if counters.Checkpoints.Load() != res.Counters.Checkpoints {
		t.Fatal("Config.Counters and Result.Counters disagree")
	}
}
