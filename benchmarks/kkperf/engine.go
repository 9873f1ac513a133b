package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"knightking/internal/checkpoint"
	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/obs/tracelog"
	"knightking/internal/transport"
)

// engineCase is one walk the engine runs inside this process: a graph, an
// algorithm and a seed. Every repetition uses the same seed, so its
// counters must repeat exactly.
type engineCase struct {
	g        *graph.Graph
	alg      func() *core.Algorithm
	walkers  int
	length   int // fixed walk length: steps must equal walkers x length
	seed     uint64
	samplers core.SamplerProvider // prebuilt tables (the kkserve row), or nil
}

func (c engineCase) config() core.Config {
	return core.Config{
		Graph: c.g, Algorithm: c.alg(), NumNodes: ranks, Workers: workersPerRank,
		NumWalkers: c.walkers, Seed: c.seed, Samplers: c.samplers,
	}
}

func (c engineCase) wantSteps() int64 { return int64(c.walkers) * int64(c.length) }

// run makes one core.Run call and returns the result and the time a
// caller waited for it.
func (c engineCase) run(mod func(*core.Config)) (*core.Result, time.Duration, error) {
	cfg := c.config()
	if mod != nil {
		mod(&cfg)
	}
	start := time.Now()
	res, err := core.Run(cfg)
	return res, time.Since(start), err
}

// checkCounts is the correctness gate of one repetition: every walker
// terminated after exactly its fixed number of steps.
func (c engineCase) checkCounts(steps, terminations int64) error {
	if steps != c.wantSteps() || terminations != int64(c.walkers) {
		return fmt.Errorf("steps %d terminations %d, want %d and %d", steps, terminations, c.wantSteps(), c.walkers)
	}
	return nil
}

// pathDigest hashes walker paths in walker-ID order.
func pathDigest(paths [][]graph.VertexID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range paths {
		for _, v := range p {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	}
	return h.Sum64()
}

// verifyPaths checks the repository's signature property on this input:
// the same seed gives bit-identical walks on two ranks and on one.
func (c engineCase) verifyPaths(walkers int) ([][]graph.VertexID, error) {
	small := c
	small.walkers = walkers
	two, _, err := small.run(func(cfg *core.Config) { cfg.RecordPaths = true })
	if err != nil {
		return nil, err
	}
	one, _, err := small.run(func(cfg *core.Config) { cfg.RecordPaths = true; cfg.NumNodes = 1 })
	if err != nil {
		return nil, err
	}
	if a, b := pathDigest(two.Paths), pathDigest(one.Paths); a != b {
		return nil, fmt.Errorf("walk digest %016x on 2 ranks, %016x on 1 rank", a, b)
	}
	return two.Paths, nil
}

// spanObserver is the benchmark's own core.Observer: it turns every
// SuperstepSpan into child spans of the run and keeps the phase sums. The
// two per-step hooks are deliberately empty.
type spanObserver struct {
	rec    *recorder
	parent int
	trace  string

	mu       sync.Mutex
	rankSpan map[int]int
	sum      core.SuperstepSpan // phase totals over all ranks and supersteps
	count    int
}

func (o *spanObserver) ObserveStepTrials(int64) {}
func (o *spanObserver) ObserveQueryBatch(int64) {}

func (o *spanObserver) OnSuperstep(s core.SuperstepSpan) {
	end := o.rec.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.count++
	o.sum.ComputeNanos += s.ComputeNanos
	o.sum.ExchangeNanos += s.ExchangeNanos
	o.sum.BarrierNanos += s.BarrierNanos
	o.sum.CheckpointNanos += s.CheckpointNanos
	o.sum.GatherNanos += s.GatherNanos
	o.sum.MoveNanos += s.MoveNanos
	o.sum.UpdateNanos += s.UpdateNanos
	rank, ok := o.rankSpan[s.Rank]
	if !ok {
		rank = o.rec.begin(o.parent, o.trace, "core", fmt.Sprintf("rank %d", s.Rank))
		o.rankSpan[s.Rank] = rank
	}
	total := s.ComputeNanos + s.ExchangeNanos + s.BarrierNanos + s.CheckpointNanos
	step := o.rec.add(rank, o.trace, "core", "superstep", end-total, end)
	at := end - total
	for _, ph := range []struct {
		layer, name string
		d           int64
	}{
		{"core", "compute", s.ComputeNanos},
		{"transport", "exchange", s.ExchangeNanos},
		{"checkpoint", "checkpoint", s.CheckpointNanos},
		{"core", "barrier", s.BarrierNanos},
	} {
		if ph.d > 0 {
			o.rec.add(step, o.trace, ph.layer, ph.name, at, at+ph.d)
			at += ph.d
		}
	}
}

func (o *spanObserver) close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, id := range o.rankSpan {
		o.rec.end(id)
	}
}

// dialLoopback brings up a 2-endpoint TCP mesh on 127.0.0.1 inside this
// process, on listeners it owns so no port is ever re-bound.
func dialLoopback() ([]transport.Endpoint, error) {
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	eps := make([]transport.Endpoint, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = transport.DialTCPGroupOn(lns[i], i, addrs, transport.TCPOptions{})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeEndpoints(eps)
			return nil, err
		}
	}
	return eps, nil
}

func closeEndpoints(eps []transport.Endpoint) {
	for _, ep := range eps {
		if ep != nil {
			_ = ep.Close() // the run is over; nothing to do about a close error
		}
	}
}

// engineLadder is the engine part of a traced run: the same walk run
// plain, observed, trace-logged, scalar, over loopback TCP and with
// checkpoints, each inside a span. overWire makes the observed run use the
// TCP mesh and the checkpoint store (the cluster row), so its phase split
// shows what the wire and the snapshots cost.
func engineLadder(rec *recorder, parent int, trace string, c engineCase, sz sizes, overWire bool, tmp string) (map[string]float64, error) {
	m := map[string]float64{}
	timed := func(name string, mod func(*core.Config)) (*core.Result, float64, error) {
		var res *core.Result
		var wait time.Duration
		err := rec.do(parent, trace, "core", name, func(int) (err error) {
			res, wait, err = c.run(mod)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		if err := c.checkCounts(res.Counters.Steps, res.Counters.Terminations); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		return res, float64(res.Counters.Steps) / wait.Seconds(), nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, plainRate, err := timed("Run plain", nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	steps := float64(plain.Counters.Steps)
	m["core.allocs_per_step"] = float64(after.Mallocs-before.Mallocs) / steps

	// Observed runs: in-process for the observer's overhead, and for the
	// cluster row once more over the wire with checkpoints, which is then
	// the run the phase split is taken from.
	observe := func(name string, mod func(*core.Config)) (*spanObserver, *core.Result, float64, error) {
		runID := rec.begin(parent, trace, "core", name)
		o := &spanObserver{rec: rec, parent: runID, trace: trace, rankSpan: map[int]int{}}
		res, wait, err := c.run(func(cfg *core.Config) {
			cfg.Observer = o
			if mod != nil {
				mod(cfg)
			}
		})
		o.close()
		rec.end(runID)
		if err == nil {
			err = c.checkCounts(res.Counters.Steps, res.Counters.Terminations)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		return o, res, float64(res.Counters.Steps) / wait.Seconds(), nil
	}
	o, observed, rate, err := observe("Run observed", nil)
	if err != nil {
		return nil, err
	}
	m["obs.observer_overhead_ratio"] = plainRate / rate
	if overWire {
		eps, err := dialSpan(rec, parent, trace)
		if err != nil {
			return nil, err
		}
		defer closeEndpoints(eps)
		store, err := newStore(c, sz, filepath.Join(tmp, "ckpt-observed"))
		if err != nil {
			return nil, err
		}
		o, observed, _, err = observe("Run observed over loopback TCP with checkpoints", func(cfg *core.Config) {
			cfg.Endpoints, cfg.Checkpoint = eps, store
		})
		if err != nil {
			return nil, err
		}
	}
	cs := observed.Counters
	total := float64(o.sum.ComputeNanos + o.sum.ExchangeNanos + o.sum.BarrierNanos + o.sum.CheckpointNanos)
	m["core.setup_ms"] = observed.SetupDuration.Seconds() * 1e3
	m["core.walk_ms"] = observed.Duration.Seconds() * 1e3
	m["core.supersteps"] = float64(observed.Iterations)
	m["core.compute_share"] = float64(o.sum.ComputeNanos) / total
	m["core.exchange_share"] = float64(o.sum.ExchangeNanos) / total
	m["core.barrier_share"] = float64(o.sum.BarrierNanos) / total
	m["core.checkpoint_share"] = float64(o.sum.CheckpointNanos) / total
	m["core.gather_ns_per_step"] = float64(o.sum.GatherNanos) / steps
	m["core.move_ns_per_step"] = float64(o.sum.MoveNanos) / steps
	m["core.update_ns_per_step"] = float64(o.sum.UpdateNanos) / steps
	m["core.queries_per_step"] = float64(cs.Queries) / steps
	m["core.light_iterations"] = float64(observed.LightIterations)
	m["sampling.trials_per_step"] = cs.TrialsPerStep()
	m["sampling.edges_per_step"] = cs.EdgesPerStep()
	m["sampling.preaccept_ratio"] = 0
	if cs.Trials > 0 {
		m["sampling.preaccept_ratio"] = float64(cs.PreAccepts) / float64(cs.Trials)
	}
	m["transport.bytes_per_step"] = float64(cs.BytesSent) / steps
	m["transport.msgs_per_superstep"] = float64(cs.Messages) / float64(observed.Iterations)

	tc := tracelog.New(tracelog.Options{Ranks: ranks})
	_, rate, err = timed("Run tracelog", func(cfg *core.Config) { cfg.Observer, cfg.Trace = tc, tc })
	if err != nil {
		return nil, err
	}
	m["obs.tracelog_overhead_ratio"] = plainRate / rate

	_, rate, err = timed("Run scalar", func(cfg *core.Config) { cfg.Stepping = core.SteppingScalar })
	if err != nil {
		return nil, err
	}
	m["core.scalar_steps_per_s"] = rate

	wire, err := dialSpan(rec, parent, trace)
	if err != nil {
		return nil, err
	}
	defer closeEndpoints(wire)
	_, rate, err = timed("Run over loopback TCP", func(cfg *core.Config) { cfg.Endpoints = wire })
	if err != nil {
		return nil, err
	}
	m["transport.wire_price"] = plainRate / rate

	ckptDir := filepath.Join(tmp, "ckpt-ladder")
	ckptStore, err := newStore(c, sz, ckptDir)
	if err != nil {
		return nil, err
	}
	ck, _, err := timed("Run checkpointed", func(cfg *core.Config) { cfg.Checkpoint = ckptStore })
	if err != nil {
		return nil, err
	}
	snapshots := float64(ck.Counters.Checkpoints) * float64(c.walkers)
	m["checkpoint.count"] = float64(ck.Counters.Checkpoints)
	m["checkpoint.write_ns_per_walker"] = float64(ck.Counters.CheckpointNanos) / snapshots
	m["checkpoint.bytes_per_walker"] = float64(ck.Counters.CheckpointBytes) / snapshots
	err = rec.do(parent, trace, "checkpoint", "Load", func(int) error {
		start := time.Now()
		cp, err := checkpoint.Load(ckptDir)
		m["checkpoint.load_ms"] = time.Since(start).Seconds() * 1e3
		if err == nil && len(cp.Segments) != ranks {
			err = fmt.Errorf("loaded %d segments, want %d", len(cp.Segments), ranks)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint.Load: %w", err)
	}
	return m, os.RemoveAll(ckptDir)
}

func dialSpan(rec *recorder, parent int, trace string) (eps []transport.Endpoint, err error) {
	err = rec.do(parent, trace, "transport", "DialTCPGroup", func(int) error {
		eps, err = dialLoopback()
		return err
	})
	return eps, err
}

func newStore(c engineCase, sz sizes, dir string) (*checkpoint.Store, error) {
	return checkpoint.NewStore(dir, sz.checkpointEvery, checkpoint.Meta{
		Seed: c.seed, NumWalkers: uint64(c.walkers), NumVertices: uint64(c.g.NumVertices()), Algorithm: c.alg().Name,
	})
}
