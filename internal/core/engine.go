package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"knightking/internal/cluster"
	"knightking/internal/graph"
	"knightking/internal/parallel"
	"knightking/internal/rng"
	"knightking/internal/sampling"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

// Message kinds on the wire.
const (
	kMigrate  uint8 = iota + 1 // batched walker records
	kQuery                     // batched state-query records
	kResponse                  // batched query-response records
	kCount                     // one int64: sender's live-walker count
	kCkpt                      // one checkpoint segment descriptor, sent to rank 0
	kCancel                    // cancellation request, broadcast to every rank
)

// Chunk size for dynamic task scheduling, matching the paper's setting
// (§6.2: "the granularity of such dynamic scheduling (chunk size) is set
// as 128, for both walkers and messages").
const walkerChunk = 128

// DefaultLightThreshold is the paper's straggler threshold: a node whose
// active walker count falls below it drops to a single worker (§6.2).
const DefaultLightThreshold = 4000

// Stepping strategies for phase A (Config.Stepping).
const (
	// SteppingInterleaved batches walkers and executes each step as three
	// stages — gather, move, update — stage-at-a-time across the batch
	// (ThunderRW-style step interleaving). The default.
	SteppingInterleaved = "interleaved"
	// SteppingScalar is the reference one-walker-at-a-time loop, kept as
	// the bit-identity oracle for the interleaved pipeline.
	SteppingScalar = "scalar"
)

// DefaultBatchSize is the interleaved pipeline's walker batch size.
const DefaultBatchSize = 256

// ErrCancelled is returned (wrapped) by Run and RunNode when a run is
// aborted through Config.Cancel. The abort is cooperative and aligned:
// every rank leaves the superstep loop at the same barrier, so no partial
// superstep is ever observable and any checkpoints on disk remain
// consistent. Match with errors.Is.
var ErrCancelled = errors.New("core: run cancelled")

// Config describes one engine run.
type Config struct {
	// Graph is the input graph (shared read-only across logical nodes).
	Graph *graph.Graph
	// Algorithm is the walk specification.
	Algorithm *Algorithm
	// NumNodes is the number of logical cluster nodes (default 1). Ignored
	// when Endpoints is set.
	NumNodes int
	// Workers is the number of computation goroutines per node (default 4,
	// mirroring the paper's thread-per-core pools).
	Workers int
	// Seed makes the whole run deterministic.
	Seed uint64
	// NumWalkers is the walker count (default |V|).
	NumWalkers int
	// StartVertex places walker id (default: id mod |V|, the paper's
	// default strategy). The in-process ranks set up at once and may call
	// it concurrently. Mutually exclusive with StartWeights.
	StartVertex func(id int64) graph.VertexID
	// StartWeights, when set (length |V|), draws each walker's start
	// vertex from this unnormalized distribution — the paper's "give ...
	// their distribution of starting locations" API. The draw uses the
	// walker's own stream, so placement stays deterministic in (seed, id).
	StartWeights []float32
	// RecordPaths stores each walker's visited vertex sequence in the
	// result (memory ~ NumWalkers × walk length).
	RecordPaths bool
	// CountVisits accumulates per-vertex visit counts (moves into each
	// vertex, start vertices excluded) in Result.Visits — the cheap way to
	// compute PPR-style stationary estimates without storing paths.
	CountVisits bool
	// Samplers, when non-nil, supplies prebuilt per-vertex alias rows —
	// e.g. a dynamic-graph epoch's incrementally maintained ones — so setup
	// skips the O(E) row build. A provided row is used only where it
	// applies exactly: the algorithm's static weights must be the graph's
	// edge weights (Biased with no EdgeStaticComp); otherwise, and for
	// vertices where the provider returns nil, the engine builds the row
	// locally as always.
	// Rows must have been built from this exact Graph (Dst is where a walk
	// goes): a degree mismatch panics rather than walking a stale epoch.
	Samplers SamplerProvider
	// Stepping selects the phase-A execution strategy: SteppingInterleaved
	// (the default) batches walkers and runs each step's gather / move /
	// update stages stage-at-a-time across the batch, overlapping adjacency
	// and sampler-table loads; SteppingScalar is the reference
	// one-walker-at-a-time loop. Both consume each walker's private RNG
	// stream in the same order, so they produce bit-identical walks under
	// the same seed.
	Stepping string
	// BatchSize is the interleaved pipeline's walker batch size (default
	// DefaultBatchSize). Ignored under scalar stepping.
	BatchSize int
	// LightThreshold enables straggler-aware light mode below this active
	// count; 0 selects DefaultLightThreshold, negative disables.
	LightThreshold int
	// Endpoints supplies a custom transport group (e.g. TCP); its size
	// overrides NumNodes. Default: an in-process group of NumNodes.
	Endpoints []transport.Endpoint
	// NetTimeout, when positive, bounds every collective Exchange call:
	// a barrier that does not complete within it (a dead or wedged peer, a
	// partitioned network) fails the run with transport.ErrTimeout instead
	// of hanging forever, which makes checkpoint recovery reachable. Zero
	// disables the guard. Applies on top of any transport-level read/write
	// deadlines (e.g. transport.TCPOptions).
	NetTimeout time.Duration
	// MaxIterations aborts runaway walks (default 10,000,000 supersteps).
	MaxIterations int
	// Counters receives engine counters (optional; Result always carries a
	// snapshot).
	Counters *stats.Counters
	// Observer receives per-superstep span records (see observer.go). Nil
	// disables spans and the stage-time clock reads behind them; spans
	// never touch walker RNG streams, so enabling them cannot change walk
	// output.
	Observer Observer
	// Trace receives the causal trace of the run: the step decisions, rank
	// migrations, and rejection trial counts of deterministically sampled
	// walkers, and every exchange's per-peer deliveries (see trace.go).
	// Nil disables tracing at the cost of one branch per hook; like
	// Observer, trace hooks never touch walker RNG streams, so enabling
	// tracing cannot change walk output.
	// internal/obs/tracelog.Collector is the production implementation.
	Trace Tracer
	// PartitionAlpha weighs vertices against edges in the 1-D partitioner
	// (default 1, the paper's |V|+|E| balance).
	PartitionAlpha float64
	// PartitionStarts overrides the computed partition with explicit range
	// boundaries (starts[i] = node i's first vertex, last entry = |V|).
	// Mandatory when Graph is a partition-local slice (graph.Partial), in
	// which case every rank must pass identical boundaries matching its
	// slice. Length must be number-of-nodes + 1.
	PartitionStarts []graph.VertexID
	// Cancel, when non-nil, requests a cooperative abort: close the channel
	// and the run stops at the next BSP barrier with an error wrapping
	// ErrCancelled. Each rank polls the channel once per superstep (a
	// non-blocking select, so the walk path stays deterministic) and the
	// observing rank broadcasts the request with its walker count, so every
	// rank — including remote processes under RunNode that never see the
	// local signal — leaves the loop at the same superstep, before any
	// checkpoint write begins. kkwalk wires SIGINT/SIGTERM to this;
	// internal/service closes it on DELETE /jobs/{id}.
	Cancel <-chan struct{}
	// Checkpoint, when non-nil, makes every rank snapshot its walker state
	// into the sink at each superstep barrier whose index is a multiple of
	// the sink's Interval. The snapshot is taken at a consistent cut (all
	// migrations delivered, no responses outstanding); a write or commit
	// failure aborts the run. See internal/checkpoint for the on-disk sink.
	Checkpoint CheckpointSink
	// Restore resumes a previous run from a loaded checkpoint instead of
	// seeding fresh walkers. The Config must otherwise match the
	// checkpointed run (graph, algorithm, seed, walker count, rank count);
	// mismatches are rejected. See internal/checkpoint.Load.
	Restore *RestoreState
}

// SamplerProvider supplies prebuilt per-vertex alias rows.
// internal/dyngraph's Epoch is the production implementation: its rows
// are maintained incrementally across edge ingest, so handing them to
// the engine makes per-run setup O(1) per vertex instead of O(degree).
type SamplerProvider interface {
	// AliasRow returns v's edge-weight alias row (sampling.BuildAliasRow
	// over Weights(v) and Neighbors(v)), or nil when the provider has none
	// (the engine then builds locally). The in-process ranks set up at
	// once, so it must be safe for concurrent calls.
	AliasRow(v graph.VertexID) []sampling.AliasEntry
}

// CheckpointSink stores consistent superstep snapshots. Implementations
// must be safe for concurrent WriteSegment calls from different ranks.
// internal/checkpoint.Store is the production implementation.
type CheckpointSink interface {
	// Interval returns the snapshot period in supersteps (>= 1). It must be
	// constant for the duration of a run so every rank triggers at the same
	// barriers.
	Interval() int
	// WriteSegment durably stores one rank's snapshot blob for the given
	// superstep and returns its stored size and checksum.
	WriteSegment(iteration, rank int, blob []byte) (SegmentInfo, error)
	// Commit finalizes iteration's checkpoint; the engine calls it on rank 0
	// only, after every rank's segment is durable (segments are sorted by
	// rank and complete).
	Commit(iteration int, segments []SegmentInfo) error
}

// SegmentInfo describes one durably written checkpoint segment.
type SegmentInfo struct {
	Rank int
	Size int64
	CRC  uint64
}

// RestoreState carries a decoded checkpoint into Run or RunNode.
type RestoreState struct {
	// Iteration is the superstep at which the snapshot was taken; the
	// resumed run continues counting from it.
	Iteration int
	// Segments holds each rank's snapshot blob, indexed by rank. A
	// multi-process rank needs at least its own entry; entries for other
	// ranks are ignored except that RunNode merges only the result section
	// of this rank's segment while Run merges every present one.
	Segments [][]byte
}

// Result summarizes a run.
type Result struct {
	// Iterations is the number of supersteps executed.
	Iterations int
	// Counters is the final counter snapshot.
	Counters stats.Snapshot
	// Lengths is the walk-length histogram (steps at termination).
	Lengths *stats.Histogram
	// Paths holds per-walker vertex sequences when RecordPaths was set
	// (indexed by walker ID), nil otherwise.
	Paths [][]graph.VertexID
	// Visits holds per-vertex visit counts when CountVisits was set, nil
	// otherwise.
	Visits []int64
	// Duration is the wall-clock walk time (excluding initialization, as
	// in the paper's methodology it *includes* walker/sampler setup; see
	// SetupDuration).
	Duration time.Duration
	// SetupDuration is the sampler/walker initialization time.
	SetupDuration time.Duration
	// LightIterations counts supersteps rank 0 spent in light mode.
	LightIterations int
}

// Run executes the walk described by cfg and returns the result.
func Run(cfg Config) (*Result, error) {
	eps := cfg.Endpoints
	if eps == nil {
		n := cfg.NumNodes
		if n <= 0 {
			n = 1
		}
		eps = transport.NewInProcGroup(n)
	}
	if cfg.NetTimeout > 0 {
		guarded := make([]transport.Endpoint, len(eps))
		for i, ep := range eps {
			guarded[i] = transport.WithExchangeTimeout(ep, cfg.NetTimeout)
		}
		eps = guarded
	}
	nodes, res, counters, err := setUp(&cfg, eps, len(eps))
	if err != nil {
		return nil, err
	}

	walkStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
	var iterations atomic.Int64
	var lightIters atomic.Int64
	err = cluster.Run(eps, func(rank int, ep transport.Endpoint) error {
		n := nodes[rank]
		iters, light, err := n.run()
		if rank == 0 {
			iterations.Store(int64(iters))
			lightIters.Store(int64(light))
		}
		return err
	})
	res.Duration = time.Since(walkStart) //kk:nondet-ok telemetry-only timing; never feeds walk state
	if err != nil {
		return nil, err
	}
	res.Iterations = int(iterations.Load())
	res.LightIterations = int(lightIters.Load())
	finishResult(res, counters, eps)
	return res, nil
}

// RunNode executes one rank's share of a *multi-process* distributed walk:
// the caller brings up a transport endpoint (typically via
// transport.DialTCPGroup, one OS process per rank — the paper's MPI
// deployment model), and every process calls RunNode with an identical
// Config (same graph, algorithm, and seed). The returned Result covers
// only this node's share: walkers that terminated here, visits to owned
// vertices' destinations made here, and this endpoint's traffic. Counter
// and histogram values must be summed across ranks for cluster totals;
// walker paths are disjoint across ranks and can be concatenated.
func RunNode(cfg Config, ep transport.Endpoint) (*Result, error) {
	if ep == nil {
		return nil, fmt.Errorf("core: RunNode requires an endpoint")
	}
	ep = transport.WithExchangeTimeout(ep, cfg.NetTimeout)
	cfg.Endpoints = nil
	cfg.NumNodes = ep.Size()
	eps := []transport.Endpoint{ep}
	nodes, res, counters, err := setUp(&cfg, eps, ep.Size())
	if err != nil {
		return nil, err
	}

	walkStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
	iters, light, runErr := nodes[0].run()
	res.Duration = time.Since(walkStart) //kk:nondet-ok telemetry-only timing; never feeds walk state
	if runErr != nil {
		return nil, runErr
	}
	res.Iterations = iters
	res.LightIterations = light
	finishResult(res, counters, eps)
	return res, nil
}

// setUp normalizes cfg for a run of size ranks and builds the nodes of
// the ranks behind eps: every rank when one process hosts the run (Run),
// this process's one rank under RunNode. A restore merges exactly the
// result sections of those ranks (one section for a Run-written
// checkpoint, one per rank for a RunNode-written one), so cluster-wide
// sums never double count across processes.
func setUp(cfg *Config, eps []transport.Endpoint, size int) ([]*node, *Result, *stats.Counters, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, nil, err
	}
	counters := cfg.Counters
	if counters == nil {
		counters = &stats.Counters{}
	}
	part, err := cfg.partition(size)
	if err != nil {
		return nil, nil, nil, err
	}
	res := newResult(cfg)

	setupStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
	ranks := make([]int, len(eps))
	for i, ep := range eps {
		ranks[i] = ep.Rank()
	}
	if cfg.Restore != nil {
		restoreStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
		if err := applyRestoredResults(cfg.Restore, ranks, res, counters); err != nil {
			return nil, nil, nil, err
		}
		counters.RestoreNanos.Add(time.Since(restoreStart).Nanoseconds()) //kk:nondet-ok telemetry-only timing; never feeds walk state
	}
	// The ranks of this process set up at once, each on its own
	// goroutine and each building its samplers on its workers: the same
	// ranks x workers goroutines the walk runs on.
	nodes := make([]*node, len(eps))
	errs := make([]error, len(eps))
	parallel.Do(len(eps), func(i int) {
		nodes[i], errs[i] = newNode(ranks[i], cfg, part, eps[i], counters, res, i == 0)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	res.SetupDuration = time.Since(setupStart) //kk:nondet-ok telemetry-only timing; never feeds walk state
	return nodes, res, counters, nil
}

// finishResult folds the endpoints' traffic into the counters and takes
// the result's post-join counter snapshot.
func finishResult(res *Result, counters *stats.Counters, eps []transport.Endpoint) {
	var msgs, bytes int64
	for _, ep := range eps {
		m, b := ep.Stats()
		msgs += m
		bytes += b
	}
	counters.Messages.Store(msgs)
	counters.BytesSent.Store(bytes)
	res.Counters = counters.Snapshot()
}

// normalize validates cfg and fills defaults.
func (cfg *Config) normalize() error {
	if cfg.Graph == nil || cfg.Algorithm == nil {
		return fmt.Errorf("core: Config requires Graph and Algorithm")
	}
	if err := cfg.Algorithm.validate(cfg.Graph); err != nil {
		return err
	}
	if cfg.Graph.NumVertices() == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.NumWalkers <= 0 {
		cfg.NumWalkers = cfg.Graph.NumVertices()
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 10_000_000
	}
	if cfg.LightThreshold == 0 {
		cfg.LightThreshold = DefaultLightThreshold
	}
	if cfg.PartitionAlpha == 0 {
		cfg.PartitionAlpha = 1
	}
	switch cfg.Stepping {
	case "":
		cfg.Stepping = SteppingInterleaved
	case SteppingInterleaved, SteppingScalar:
	default:
		return fmt.Errorf("core: unknown Stepping %q (want %s or %s)", cfg.Stepping, SteppingInterleaved, SteppingScalar)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.StartVertex != nil && cfg.StartWeights != nil {
		return fmt.Errorf("core: StartVertex and StartWeights are mutually exclusive")
	}
	if cfg.StartWeights != nil && len(cfg.StartWeights) != cfg.Graph.NumVertices() {
		return fmt.Errorf("core: StartWeights length %d != |V| %d", len(cfg.StartWeights), cfg.Graph.NumVertices())
	}
	return nil
}

// partition resolves the vertex partition for numNodes ranks.
func (cfg *Config) partition(numNodes int) (*cluster.Partition, error) {
	if cfg.PartitionStarts != nil {
		if len(cfg.PartitionStarts) != numNodes+1 {
			return nil, fmt.Errorf("core: PartitionStarts has %d boundaries, want %d",
				len(cfg.PartitionStarts), numNodes+1)
		}
		if int(cfg.PartitionStarts[numNodes]) != cfg.Graph.NumVertices() {
			return nil, fmt.Errorf("core: PartitionStarts does not cover |V|=%d", cfg.Graph.NumVertices())
		}
		return cluster.NewPartition(cfg.PartitionStarts)
	}
	if cfg.Graph.Partial() {
		return nil, fmt.Errorf("core: a partition-local graph requires explicit PartitionStarts")
	}
	return cluster.Partition1D(cfg.Graph, numNodes, cfg.PartitionAlpha), nil
}

// newResult allocates the result sinks for a run.
func newResult(cfg *Config) *Result {
	histSize := cfg.Algorithm.MaxSteps
	if histSize <= 0 {
		histSize = 4096
	}
	res := &Result{Lengths: stats.NewHistogram(histSize + 1)}
	if cfg.RecordPaths {
		res.Paths = make([][]graph.VertexID, cfg.NumWalkers)
	}
	if cfg.CountVisits {
		res.Visits = make([]int64, cfg.Graph.NumVertices())
	}
	return res
}

// node is one logical cluster node: a vertex partition, its precomputed
// samplers, and the walkers currently residing on it.
type node struct {
	rank     int
	cfg      *Config
	g        *graph.Graph
	alg      *Algorithm
	part     *cluster.Partition
	ep       transport.Endpoint
	lo, hi   graph.VertexID
	counters *stats.Counters
	res      *Result

	// Per owned vertex (index v-lo), nil for degree-0 vertices: the alias
	// row (non-uniform static weights only) and the rejection dartboard
	// (dynamic algorithms only), built at setup into node-level slabs; a
	// biased dartboard draws from an Alias in aliases laid over the row.
	rows       [][]sampling.AliasEntry
	rejections []*sampling.Rejection
	boards     []sampling.Rejection
	aliases    []sampling.Alias

	walkers []*Walker
	// parkedByID maps a walker ID (dense 0..NumWalkers-1) to the walker
	// while it waits on a state query; allocated for higher-order walks only.
	parkedByID []*Walker

	// inFlight counts migrations sent but not yet counted by their receiver.
	//kk:phase compute,superstep
	inFlight int64

	// Preallocated hot-path state: the walker arena, one workerState per
	// worker goroutine (persistent output staging, batch arrays, scratch),
	// a loop-goroutine workerState for phase C, and the phase-A keep/parked
	// scratch. All are reused across supersteps so the steady-state walker
	// and message path allocates nothing.
	pool      walkerPool
	wstates   []*workerState
	loop      *workerState
	keep      []bool    //kk:phase compute
	parkedBuf []*Walker //kk:phase compute
	queryBuf  []transport.Message
	spansBuf  []querySpan //kk:phase query
	errsBuf   []error     //kk:phase query

	// localMig is non-nil when the endpoint shares this process's address
	// space (transport.LocalSender): migrations then transfer walker
	// objects by reference instead of round-tripping through the wire
	// codec. A wrapping endpoint (exchange timeout, fault injection) hides
	// the capability, restoring the byte path; observers and tracers never
	// wrap the endpoint, so attaching them keeps the zero-copy path.
	localMig transport.LocalSender

	interleaved bool
	batchSize   int

	// obs receives telemetry when Config.Observer is set. The step*
	// accumulators collect the current superstep's exchange time and
	// received traffic; they are only touched from the node's loop
	// goroutine (exchange is never called from workers).
	obs           Observer
	stepExchange  int64
	stepRecvMsgs  int64
	stepRecvBytes int64
	stepGather    int64 //kk:phase compute,superstep
	stepMove      int64 //kk:phase compute,superstep
	stepUpdate    int64 //kk:phase compute,superstep

	// tracer receives sampled walker journeys and exchange deliveries when
	// Config.Trace is set (see trace.go); curIter is the running superstep number stamped on
	// each event. The loop goroutine writes curIter before phase A's
	// workers launch and they all join before the next write, so workers
	// read it race-free.
	tracer  Tracer
	curIter int32

	// ownsResult marks the node whose snapshot segments carry the process's
	// result sinks (paths, visits, histogram) and counters: rank 0 under
	// Run (sinks are process-shared), every rank under RunNode.
	ownsResult bool
	// startIter is the superstep the node resumes from (0 for a fresh run).
	startIter int
	// resumed marks a node restored from a checkpoint, which must re-issue
	// the outstanding queries of its awaiting walkers before the first
	// exchange.
	resumed bool
}

func newNode(rank int, cfg *Config, part *cluster.Partition, ep transport.Endpoint, counters *stats.Counters, res *Result, ownsResult bool) (*node, error) {
	n := &node{
		rank:       rank,
		cfg:        cfg,
		g:          cfg.Graph,
		alg:        cfg.Algorithm,
		part:       part,
		ep:         ep,
		counters:   counters,
		res:        res,
		ownsResult: ownsResult,
		obs:        cfg.Observer,
		tracer:     cfg.Trace,
	}
	n.lo, n.hi = part.Range(rank)
	n.interleaved = cfg.Stepping != SteppingScalar
	n.batchSize = cfg.BatchSize
	n.localMig, _ = ep.(transport.LocalSender)
	n.buildSamplers()
	n.wstates = make([]*workerState, cfg.Workers)
	for i := range n.wstates {
		n.wstates[i] = newWorkerState(ep.Size())
	}
	n.loop = newWorkerState(ep.Size())
	if n.alg.higherOrder() {
		n.parkedByID = make([]*Walker, cfg.NumWalkers)
	}
	if cfg.Restore != nil {
		restoreStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
		if err := n.restoreSnapshot(cfg.Restore); err != nil {
			return nil, err
		}
		counters.RestoreNanos.Add(time.Since(restoreStart).Nanoseconds()) //kk:nondet-ok telemetry-only timing; never feeds walk state
	} else {
		n.seedWalkers()
	}
	return n, nil
}

// buildSamplers precomputes the per-vertex sampling structures and
// rejection dartboards, the paper's initialization step. It splits the
// owned range into one run of vertices per worker, of about equal set-up
// work, and builds them on as many goroutines as the walk uses. Rows sit
// in one node-level slab in vertex order, so a run's slab offset is the
// prefix sum of the rows built before it. It allocates per node and per
// worker, never per vertex: the row slab, the dartboard slabs and one
// scratch per worker.
func (n *node) buildSamplers() {
	count := int(n.hi - n.lo)
	dynamic, uniform := n.alg.dynamic(), n.alg.uniformStatic()
	if dynamic {
		n.rejections = make([]*sampling.Rejection, count)
		n.boards = make([]sampling.Rejection, count)
	}
	if !uniform {
		n.rows = make([][]sampling.AliasEntry, count)
		if dynamic {
			n.aliases = make([]sampling.Alias, count)
		}
		// A provided row replaces local construction only when it samples
		// what the build's would: edge-weight statics.
		if n.cfg.Samplers != nil && n.alg.EdgeStaticComp == nil {
			for i := range n.rows {
				v := n.lo + graph.VertexID(i)
				row := n.cfg.Samplers.AliasRow(v)
				if deg := n.g.Degree(v); row != nil && len(row) != deg {
					panic(fmt.Sprintf("core: provided alias row of vertex %d covers %d edges, degree is %d (stale epoch?)", v, len(row), deg))
				}
				n.rows[i] = row
			}
		}
	}
	// work reports vertex i's slab entries (its degree when its row is
	// built here) and its set-up work in edges (row and dartboard).
	work := func(i int) (slab, edges int) {
		deg := n.g.Degree(n.lo + graph.VertexID(i))
		if !uniform && n.rows[i] == nil {
			slab = deg
		}
		if slab > 0 || dynamic {
			edges = deg
		}
		return slab, edges
	}
	need, total := 0, 0
	for i := 0; i < count; i++ {
		s, e := work(i)
		need, total = need+s, total+e
	}
	if total == 0 {
		return
	}
	var slab []sampling.AliasEntry
	var computed []float32 // EdgeStaticComp weights, parallel to slab
	if need > 0 {
		slab = make([]sampling.AliasEntry, need)
		if n.alg.EdgeStaticComp != nil {
			computed = make([]float32, need)
		}
	}
	// Cut [0, count) where the running work crosses k/workers of the
	// total; runs[k] is worker k's first vertex and its slab offset.
	workers := n.cfg.Workers
	type run struct{ lo, slab int }
	runs := make([]run, workers+1)
	i, done, at := 0, 0, 0
	for k := 1; k < workers; k++ {
		for i < count && done < total*k/workers {
			s, e := work(i)
			done, at, i = done+e, at+s, i+1
		}
		runs[k] = run{i, at}
	}
	runs[workers] = run{count, need}
	parallel.Do(workers, func(k int) {
		lo, hi := runs[k], runs[k+1]
		var comp []float32
		if computed != nil {
			comp = computed[lo.slab:hi.slab]
		}
		n.buildRange(lo.lo, hi.lo, slab[lo.slab:hi.slab], comp)
	})
}

// buildRange builds the alias rows and dartboards of owned vertices
// [lo, hi) (indices from n.lo), carving the rows it builds out of slab in
// vertex order and, under EdgeStaticComp, their weights out of computed.
func (n *node) buildRange(lo, hi int, slab []sampling.AliasEntry, computed []float32) {
	dynamic, uniform := n.alg.dynamic(), n.alg.uniformStatic()
	var scratch sampling.AliasScratch
	if !uniform {
		most := 0
		for i := lo; i < hi; i++ {
			if n.rows[i] == nil {
				most = max(most, n.g.Degree(n.lo+graph.VertexID(i)))
			}
		}
		scratch.Grow(most)
	}
	for i := lo; i < hi; i++ {
		v := n.lo + graph.VertexID(i)
		deg := n.g.Degree(v)
		if deg == 0 {
			continue
		}
		var weights []float32
		if !uniform {
			weights = n.g.Weights(v)
			if computed != nil {
				weights, computed = computed[:deg:deg], computed[deg:]
				for j := range weights {
					weights[j] = n.alg.EdgeStaticComp(n.g, v, j)
				}
			}
			if n.rows[i] == nil {
				n.rows[i], slab = slab[:deg:deg], slab[deg:]
				if err := sampling.BuildAliasRow(n.rows[i], weights, n.g.Neighbors(v), &scratch); err != nil {
					panic(fmt.Sprintf("core: vertex %d static weights: %v", v, err))
				}
			}
		}
		if !dynamic {
			continue
		}
		var s sampling.StaticSampler
		if uniform {
			s = sampling.SharedUniform(deg)
		} else {
			n.aliases[i].Init(n.rows[i], weights)
			s = &n.aliases[i]
		}
		q, l := n.alg.UpperBound(n.g, v), 0.0
		if n.alg.LowerBound != nil {
			l = n.alg.LowerBound(n.g, v)
		}
		var apps []sampling.Appendix
		if n.alg.Outliers != nil {
			apps = n.alg.Outliers(n.g, v)
		}
		n.boards[i].Reset(s, q, l, apps)
		n.rejections[i] = &n.boards[i]
	}
}

// seedWalkers creates the walkers whose start vertex this node owns.
// Every node derives every walker's start deterministically (from the
// config or the walker's own stream), so no coordination is needed to
// agree on placement.
func (n *node) seedWalkers() {
	numV := int64(n.g.NumVertices())
	var startDist *sampling.ITS
	if n.cfg.StartWeights != nil {
		its, err := sampling.NewITS(n.cfg.StartWeights)
		if err != nil {
			panic(fmt.Sprintf("core: StartWeights: %v", err))
		}
		startDist = its
	}
	for id := int64(0); id < int64(n.cfg.NumWalkers); id++ {
		// Derive the stream and draw the placement on the stack; a walker
		// is materialized (from the still-pristine arena, so every field is
		// zero) only when this node owns the start vertex. Unowned ids cost
		// no allocation at all.
		r := rng.Stream(n.cfg.Seed, uint64(id))
		var start graph.VertexID
		switch {
		case startDist != nil:
			start = graph.VertexID(startDist.Sample(&r))
		case n.cfg.StartVertex != nil:
			start = n.cfg.StartVertex(id)
		default:
			start = graph.VertexID(id % numV)
		}
		if !n.part.Owns(n.rank, start) {
			continue
		}
		w := n.pool.get()
		w.ID = id
		w.R = r
		w.Cur = start
		w.Origin = start
		if n.cfg.RecordPaths {
			w.Path = []graph.VertexID{start}
		}
		if n.alg.InitWalker != nil {
			n.alg.InitWalker(w, &w.R)
		}
		n.setTraced(w)
		n.walkers = append(n.walkers, w)
	}
}

// outBufs accumulates batched outgoing records for one phase. Each worker
// owns its own outBufs, so no locking is needed while encoding.
type outBufs struct {
	size       int
	migrate    [][]byte
	local      []*walkerBatch // object-path migrations (shared address space)
	query      [][]byte
	response   [][]byte
	migrations int64
}

func newOutBufs(size int) *outBufs {
	return &outBufs{
		size:     size,
		migrate:  make([][]byte, size),
		local:    make([]*walkerBatch, size),
		query:    make([][]byte, size),
		response: make([][]byte, size),
	}
}

func (o *outBufs) addMigration(dest int, w *Walker) {
	o.migrate[dest] = encodeWalker(o.migrate[dest], w)
	o.migrations++
}

func (o *outBufs) addLocalMigration(dest int, w *Walker) {
	b := o.local[dest]
	if b == nil {
		b = walkerBatchPool.Get().(*walkerBatch)
		o.local[dest] = b
	}
	b.ws = append(b.ws, w)
	o.migrations++
}

func (o *outBufs) addQuery(dest int, walkerID int64, target graph.VertexID, arg uint64) {
	var rec [20]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(walkerID))
	binary.LittleEndian.PutUint32(rec[8:], target)
	binary.LittleEndian.PutUint64(rec[12:], arg)
	o.query[dest] = append(o.query[dest], rec[:]...)
}

func (o *outBufs) addResponse(dest int, walkerID int64, result uint64) {
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(walkerID))
	binary.LittleEndian.PutUint64(rec[8:], result)
	o.response[dest] = append(o.response[dest], rec[:]...)
}

// flush sends all non-empty buffers. The transport's ownership contract
// transfers a sent payload to the endpoint, so flush copies each staging
// buffer into an exactly-sized payload and keeps the staging capacity for
// the next superstep: one allocation per non-empty (dest, kind) pair
// instead of regrowing every staging buffer from scratch each phase.
// Object-path migration batches (ls non-nil) transfer wholesale — the
// receiver recycles the batch container through walkerBatchPool.
//
//kk:hotpath
func (o *outBufs) flush(ep transport.Endpoint, ls transport.LocalSender) {
	for dest := 0; dest < o.size; dest++ {
		if b := o.local[dest]; b != nil {
			ls.SendLocal(dest, kMigrate, b)
			o.local[dest] = nil
		}
		if b := o.migrate[dest]; len(b) > 0 {
			ep.Send(dest, kMigrate, append(make([]byte, 0, len(b)), b...)) //kk:alloc-ok per-superstep payload copy: Send retains the buffer, so staging cannot be reused without it
			o.migrate[dest] = b[:0]
		}
		if b := o.query[dest]; len(b) > 0 {
			ep.Send(dest, kQuery, append(make([]byte, 0, len(b)), b...)) //kk:alloc-ok per-superstep payload copy: Send retains the buffer, so staging cannot be reused without it
			o.query[dest] = b[:0]
		}
		if b := o.response[dest]; len(b) > 0 {
			ep.Send(dest, kResponse, append(make([]byte, 0, len(b)), b...)) //kk:alloc-ok per-superstep payload copy: Send retains the buffer, so staging cannot be reused without it
			o.response[dest] = b[:0]
		}
	}
}

// exchange runs one collective exchange, accumulating its wall time (wire
// transfer plus barrier wait) into the ExchangeNanos counter so that
// communication cost is separable from compute in run summaries, and
// reporting the delivery to the tracer.
func (n *node) exchange() ([]transport.Message, error) {
	start := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
	msgs, err := n.ep.Exchange()
	d := time.Since(start) //kk:nondet-ok telemetry-only timing; never feeds walk state
	n.counters.ExchangeNanos.Add(d.Nanoseconds())
	if n.obs != nil {
		n.stepExchange += d.Nanoseconds()
		n.stepRecvMsgs += int64(len(msgs))
		for _, m := range msgs {
			n.stepRecvBytes += int64(len(m.Payload))
		}
	}
	if n.tracer != nil {
		n.tracer.ObserveExchangePeers(n.rank, d, msgs)
	}
	return msgs, err
}

// run executes the BSP superstep loop (paper §5.1). Every superstep has
// one exchange for static/first-order walks, or two for higher-order walks
// (queries out + responses back), exactly the structure the paper
// describes.
//
//kk:phase superstep
func (n *node) run() (iterations, lightIters int, err error) {
	twoRound := n.alg.higherOrder()
	iterations = n.startIter
	if n.resumed {
		n.resendPendingQueries()
	}
	for {
		iterations++
		n.curIter = int32(iterations)
		if iterations > n.cfg.MaxIterations {
			return iterations, lightIters, fmt.Errorf("core: exceeded %d supersteps; walk not converging", n.cfg.MaxIterations)
		}
		start := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
		active := len(n.walkers)
		light := n.lightMode(active)
		if light {
			lightIters++
		}

		// Span accumulators for this superstep; exchange time and received
		// traffic land in the node's step* fields via exchange().
		var computeNanos, ckptNanos, ckptBytes, globalCount int64
		n.stepExchange, n.stepRecvMsgs, n.stepRecvBytes = 0, 0, 0
		n.stepGather, n.stepMove, n.stepUpdate = 0, 0, 0
		emitSpan := func() {
			if n.obs == nil {
				return
			}
			barrier := time.Since(start).Nanoseconds() - computeNanos - n.stepExchange - ckptNanos //kk:nondet-ok telemetry-only timing; never feeds walk state
			if barrier < 0 {
				barrier = 0
			}
			n.obs.OnSuperstep(SuperstepSpan{
				Rank:            n.rank,
				Iteration:       iterations,
				LightMode:       light,
				LocalWalkers:    active,
				GlobalWalkers:   globalCount,
				RecvMessages:    n.stepRecvMsgs,
				RecvBytes:       n.stepRecvBytes,
				ComputeNanos:    computeNanos,
				ExchangeNanos:   n.stepExchange,
				BarrierNanos:    barrier,
				CheckpointNanos: ckptNanos,
				CheckpointBytes: ckptBytes,
				GatherNanos:     n.stepGather,
				MoveNanos:       n.stepMove,
				UpdateNanos:     n.stepUpdate,
			})
		}

		// Phase A: local walker processing (trials, local moves, query and
		// migration generation).
		parked := n.phaseA(light)
		for _, w := range parked {
			n.parkedByID[w.ID] = w
		}

		// Send this node's live-walker count to every rank, then exchange.
		// A locally observed cancellation rides along as a broadcast: the
		// decision to stop is taken from the union of requests received at
		// the barrier, so every rank stops at the same superstep.
		count := int64(len(n.walkers)) + n.inFlight
		var cb [8]byte
		binary.LittleEndian.PutUint64(cb[:], uint64(count))
		for dest := 0; dest < n.ep.Size(); dest++ {
			n.ep.Send(dest, kCount, cb[:])
		}
		if n.cancelRequested() {
			for dest := 0; dest < n.ep.Size(); dest++ {
				n.ep.Send(dest, kCancel, []byte{1})
			}
		}
		n.inFlight = 0
		computeNanos += time.Since(start).Nanoseconds() //kk:nondet-ok telemetry-only timing; never feeds walk state

		msgs, err := n.exchange()
		if err != nil {
			return iterations, lightIters, err
		}

		demuxStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
		var global int64
		var cancelled bool
		queryMsgs := n.queryBuf[:0]
		for _, m := range msgs {
			switch m.Kind {
			case kCount:
				if len(m.Payload) != 8 {
					return iterations, lightIters, fmt.Errorf("core: malformed count message (%d bytes) from rank %d", len(m.Payload), m.From)
				}
				global += int64(binary.LittleEndian.Uint64(m.Payload))
			case kMigrate:
				if m.Local != nil {
					b := m.Local.(*walkerBatch)
					if n.tracer != nil {
						// The objects carry the sender's decisions.
						for _, w := range b.ws {
							n.setTraced(w)
						}
					}
					n.walkers = append(n.walkers, b.ws...)
					b.recycle()
				} else if err := n.receiveWalkers(m.Payload); err != nil {
					return iterations, lightIters, err
				}
			case kQuery:
				queryMsgs = append(queryMsgs, m)
			case kCancel:
				cancelled = true
			default:
				return iterations, lightIters, fmt.Errorf("core: unexpected message kind %d in round 1", m.Kind)
			}
		}
		globalCount = global
		computeNanos += time.Since(demuxStart).Nanoseconds() //kk:nondet-ok telemetry-only timing; never feeds walk state

		if global == 0 {
			emitSpan()
			return iterations, lightIters, nil
		}
		// Abort after the count barrier but before any checkpoint write:
		// every migration up to this superstep has been delivered, so the
		// newest committed checkpoint (if any) stays the consistent resume
		// point and no superstep is ever half-snapshotted.
		if cancelled {
			emitSpan()
			return iterations, lightIters, fmt.Errorf("%w at superstep %d", ErrCancelled, iterations)
		}

		// Checkpoint at the barrier: every migration sent up to this
		// superstep has been delivered and folded into some rank's walker
		// list, no responses are outstanding, and the only in-flight
		// records — this superstep's state queries — are re-derivable from
		// the parked walkers' pending darts. The cut is therefore fully
		// described by the per-rank walker sets.
		if n.checkpointDue(iterations) {
			// The checkpoint barrier is an extra Exchange, and under the
			// transport's ownership contract that invalidates this
			// superstep's received payloads. The query batches are still
			// needed by phase B, so move them out of the recyclable frame
			// buffers first.
			for i := range queryMsgs {
				queryMsgs[i].Payload = append([]byte(nil), queryMsgs[i].Payload...)
			}
			// The commit barrier's exchange time belongs to the checkpoint
			// phase of the span, not the exchange phase.
			preExchange := n.stepExchange
			ckptStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
			if ckptBytes, err = n.writeCheckpoint(iterations); err != nil {
				return iterations, lightIters, err
			}
			ckptNanos = time.Since(ckptStart).Nanoseconds() //kk:nondet-ok telemetry-only timing; never feeds walk state
			n.stepExchange = preExchange
		}
		if !twoRound {
			emitSpan()
			continue
		}

		// Phase B: answer incoming state queries, in parallel chunks (the
		// paper schedules "chunks of either walkers or messages"; walkers
		// were phase A, messages are here).
		phaseBStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
		if err := n.phaseB(queryMsgs, light); err != nil {
			return iterations, lightIters, err
		}
		// Stash the demux scratch for the next superstep. clear severs the
		// payload aliases first — the backing array outlives this
		// superstep's ownership window, the payload views must not.
		clear(queryMsgs)
		n.queryBuf = queryMsgs[:0]
		computeNanos += time.Since(phaseBStart).Nanoseconds() //kk:nondet-ok telemetry-only timing; never feeds walk state

		msgs, err = n.exchange()
		if err != nil {
			return iterations, lightIters, err
		}

		// Phase C: resolve pending darts with the returned results, using the
		// loop goroutine's persistent workerState for staging and counters.
		phaseCStart := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
		for _, m := range msgs {
			if m.Kind != kResponse {
				return iterations, lightIters, fmt.Errorf("core: unexpected message kind %d in round 2", m.Kind)
			}
			if err := n.applyResponses(m.Payload, n.loop); err != nil {
				return iterations, lightIters, err
			}
		}
		// Drop the walkers phase C migrated away (their vertex is no longer
		// owned here), keeping order, before flush and putAll hand them on.
		if n.loop.out.migrations > 0 {
			n.walkers = slices.DeleteFunc(n.walkers, func(w *Walker) bool { return !n.part.Owns(n.rank, w.Cur) })
		}
		n.inFlight += n.loop.out.migrations
		n.loop.out.migrations = 0
		n.loop.out.flush(n.ep, n.localMig) // delivered at next superstep's first exchange
		n.loop.counters.flush(n.counters)
		n.pool.putAll(&n.loop.free)
		computeNanos += time.Since(phaseCStart).Nanoseconds() //kk:nondet-ok telemetry-only timing; never feeds walk state
		emitSpan()
	}
}

// cancelRequested polls the run's cancel channel without blocking. Walk
// state never depends on the poll's outcome within a superstep: a
// cancelled run produces no result at all, and an uncancelled run is
// untouched, so determinism from the seed is preserved.
func (n *node) cancelRequested() bool {
	if n.cfg.Cancel == nil {
		return false
	}
	select {
	case <-n.cfg.Cancel:
		return true
	default:
		return false
	}
}

// lightMode reports whether this node should shrink to one worker.
func (n *node) lightMode(active int) bool {
	return n.cfg.LightThreshold > 0 && active < n.cfg.LightThreshold
}

// phaseA processes every ready walker once (to a move, a termination, or a
// parked query), in parallel chunks, then compacts the walker list.
// Returns the walkers parked on queries this phase (a scratch slice valid
// until the next phase A).
//
//kk:phase compute
func (n *node) phaseA(light bool) []*Walker {
	workers := n.cfg.Workers
	if light {
		workers = 1
	}
	ws := n.walkers
	if cap(n.keep) < len(ws) {
		n.keep = make([]bool, len(ws))
	}
	// Every index in [0, len) is written exactly once by whichever worker
	// claims its chunk, so the reused keep slice needs no clearing.
	keep := n.keep[:len(ws)]
	chunk := walkerChunk
	if n.interleaved {
		chunk = n.batchSize
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(st *workerState) {
			defer wg.Done()
			for {
				base := int(next.Add(int64(chunk))) - chunk
				if base >= len(ws) {
					break
				}
				end := base + chunk
				if end > len(ws) {
					end = len(ws)
				}
				if n.interleaved {
					n.stepBatch(ws, base, end, keep, st)
				} else {
					n.stepScalar(ws, base, end, keep, st)
				}
			}
			st.counters.flush(n.counters)
		}(n.wstates[wk])
	}
	wg.Wait()

	kept := ws[:0]
	for i, w := range ws {
		if keep[i] {
			kept = append(kept, w)
		}
	}
	n.walkers = kept

	parked := n.parkedBuf[:0]
	for wk := 0; wk < workers; wk++ {
		st := n.wstates[wk]
		parked = append(parked, st.parked...)
		st.parked = st.parked[:0]
		n.inFlight += st.out.migrations
		st.out.migrations = 0
		st.out.flush(n.ep, n.localMig)
		n.pool.putAll(&st.free)
		if n.obs != nil {
			n.stepGather += st.gatherNs
			n.stepMove += st.moveNs
			n.stepUpdate += st.updateNs
			st.gatherNs, st.moveNs, st.updateNs = 0, 0, 0
		}
	}
	n.parkedBuf = parked
	return parked
}

// stepScalar advances walkers [base, end) one at a time — the reference
// stepping, kept as the bit-identity oracle for the interleaved pipeline.
// It shares decideStep/applyAction with stepBatch, so the two strategies
// cannot drift apart.
//
//kk:hotpath
func (n *node) stepScalar(ws []*Walker, base, end int, keep []bool, st *workerState) {
	for i := base; i < end; i++ {
		w := ws[i]
		if w.awaiting {
			keep[i] = true // parked in an earlier superstep
			continue
		}
		deg, row, rj := n.tablesAt(w.Cur)
		act, dst := n.decideStep(w, deg, row, rj, st)
		keep[i] = n.applyAction(w, act, dst, st)
	}
}

// tablesAt returns what a step at owned vertex v reads before drawing:
// its degree, its alias row (nil for uniform statics), and its dartboard
// (nil for static walks and degree-0 vertices). A biased static step
// takes the degree from the row and never touches the CSR.
func (n *node) tablesAt(v graph.VertexID) (deg int, row []sampling.AliasEntry, rj *sampling.Rejection) {
	if n.rejections != nil {
		rj = n.rejections[v-n.lo]
	}
	if n.rows == nil {
		return n.g.Degree(v), nil, rj
	}
	row = n.rows[v-n.lo]
	return len(row), row, rj
}

// action is a decided step outcome, applied by applyAction.
type action uint8

const (
	actYield    action = iota // stays put, retries next superstep
	actFinish                 // walk over: record results, retire the walker
	actMove                   // traverse the chosen edge (edge index valid)
	actTeleport               // restart jump back to the walker's origin
	actPark                   // blocked on the remote query in w.pending*
)

// decideStep runs the decision half of one walker step: every RNG draw the
// step consumes happens here, in a fixed per-walker order. Cross-walker
// ordering is free — each walker draws only from its private stream — which
// is exactly why scalar and interleaved stepping are bit-identical. The
// chosen outcome (for actMove, the destination vertex) is applied by
// applyAction, which draws nothing.
func (n *node) decideStep(w *Walker, deg int, row []sampling.AliasEntry, rj *sampling.Rejection, st *workerState) (action, graph.VertexID) {
	bc := &st.counters
	if act, ended := n.stepBoundary(w, deg); ended {
		return act, 0
	}

	if !n.alg.dynamic() {
		// Static walk: sample directly from the precomputed row; no
		// rejection step, no Pd evaluations (paper: "executes its unified
		// sampling workflow, but without actually performing rejection
		// sampling"). An alias draw reads its destination off the row.
		// The step's one dart is counted by oneDartSteps alone.
		bc.oneDartSteps++
		n.traceStep(w, 1)
		if row == nil {
			return actMove, n.g.Neighbors(w.Cur)[w.R.Intn(deg)]
		}
		return actMove, row[sampling.DrawAlias(row, &w.R)].Dst
	}

	fallbackAt := n.alg.fallbackTrials()
	for trials := 0; ; trials++ {
		if trials >= fallbackAt {
			if !n.alg.higherOrder() {
				dst, ok := n.fullScanChoose(w, deg, st, int64(fallbackAt)+1)
				if !ok {
					return actFinish, 0
				}
				return actMove, dst
			}
			// Remote Pd rules out an exact full scan; check for dead ends
			// if the algorithm can, otherwise yield and retry next
			// superstep.
			if n.alg.ZeroMassCheck != nil && n.alg.ZeroMassCheck(n.g, w.Cur, w) {
				return actFinish, 0
			}
			return actYield, 0
		}
		bc.trials++
		p := rj.Propose(&w.R)
		if p.Appendix >= 0 {
			bc.appendixHits++
			tag := rj.Appendices()[p.Appendix].Tag
			idx := n.alg.LocateOutlier(n.g, w.Cur, w, tag)
			if idx < 0 {
				continue
			}
			e := n.g.EdgeAt(w.Cur, idx)
			pd := n.alg.EdgeDynamicComp(w, e, 0, false)
			bc.edgeProbEvals++
			prob := rj.AppendixAcceptProb(p, float64(n.alg.staticWeight(n.g, w.Cur, idx)), pd)
			if w.R.Bernoulli(prob) {
				n.observeStep(w, int64(trials)+1, bc)
				return actMove, e.Dst
			}
			continue
		}
		if p.PreAccepted {
			bc.preAccepts++
			n.observeStep(w, int64(trials)+1, bc)
			return actMove, n.g.Neighbors(w.Cur)[p.EdgeIdx]
		}
		e := n.g.EdgeAt(w.Cur, p.EdgeIdx)
		if n.alg.higherOrder() {
			if target, arg, needed := n.alg.PostQuery(w, e); needed {
				w.awaiting = true
				w.pendingEdge = int32(p.EdgeIdx)
				w.pendingY = p.Y
				w.pendingTarget = target
				w.pendingArg = arg
				return actPark, 0
			}
		}
		pd := n.alg.EdgeDynamicComp(w, e, 0, false)
		bc.edgeProbEvals++
		if rj.AcceptMain(p, pd) {
			n.observeStep(w, int64(trials)+1, bc)
			return actMove, e.Dst
		}
	}
}

// stepBoundary runs the step-boundary checks (the Pe component) of a walker
// that has not passed them this step yet, drawing from its stream in a
// fixed order: termination, then restart. ended reports that the step
// ends here with act (finish or teleport); otherwise the walker is marked
// mid-step and goes on to sample an edge.
func (n *node) stepBoundary(w *Walker, deg int) (act action, ended bool) {
	if w.sampling {
		return actYield, false
	}
	if n.alg.MaxSteps > 0 && int(w.Step) >= n.alg.MaxSteps {
		return actFinish, true
	}
	if n.alg.TerminationProb > 0 && w.R.Bernoulli(n.alg.TerminationProb) {
		return actFinish, true
	}
	if n.alg.RestartProb > 0 && w.R.Bernoulli(n.alg.RestartProb) {
		return actTeleport, true
	}
	if deg == 0 {
		return actFinish, true
	}
	w.sampling = true
	return actYield, false
}

// applyAction performs the update half of a decided step — result
// recording, relocation, message emission — and reports whether w stays in
// this node's walker list. It never touches walker RNG, so the batch
// pipeline is free to run it after all of a batch's decisions.
func (n *node) applyAction(w *Walker, act action, dst graph.VertexID, st *workerState) bool {
	switch act {
	case actYield:
		if n.traces(w) {
			n.traceWalkerEvent(w, WalkerYield, w.Cur, 0, -1)
		}
		return true
	case actFinish:
		if n.traces(w) {
			n.traceWalkerEvent(w, WalkerFinish, w.Cur, 0, -1)
		}
		n.finish(w, st)
		return false
	case actMove:
		st.counters.steps++
		return n.relocate(w, dst, st)
	case actTeleport:
		// A restart counts a step of walk length but not an edge traversal.
		if n.traces(w) {
			n.traceWalkerEvent(w, WalkerTeleport, w.Cur, 0, -1)
		}
		st.counters.restarts++
		return n.relocate(w, w.Origin, st)
	case actPark:
		if n.traces(w) {
			n.traceWalkerEvent(w, WalkerPark, w.pendingTarget, 0, -1)
		}
		st.out.addQuery(n.part.Owner(w.pendingTarget), w.ID, w.pendingTarget, w.pendingArg)
		st.counters.queries++
		st.parked = append(st.parked, w)
		return true
	}
	panic(fmt.Sprintf("core: unknown step action %d", act)) //kk:alloc-ok panic path: an unknown step action is an engine bug, never steady state
}

// observeStep counts an accepted step's trial burst into the worker's
// trials-per-step distribution and traces it.
func (n *node) observeStep(w *Walker, trials int64, bc *batchCounters) {
	bc.stepTrials.Observe(trials)
	n.traceStep(w, trials)
}

// traceStep reports an accepted step's trial burst to the causal trace
// (for sampled walkers); it consumes no walker RNG. The event fires at
// acceptance, while the walker still resides at the deciding vertex, so
// every stepping strategy and the phase-C resolution path emit through
// this one site.
func (n *node) traceStep(w *Walker, trials int64) {
	if n.traces(w) {
		n.traceWalkerEvent(w, WalkerStep, w.Cur, int32(trials), -1)
	}
}

// fullScanChoose is the exact O(deg) step used after FallbackTrials
// consecutive rejections: evaluate Pd for every edge and sample the
// product distribution directly, using the worker's scratch buffers so the
// steady state allocates nothing. It returns the chosen edge's
// destination; ok=false means no edge has positive probability (the
// paper's "no out edges ... are eligible"). trials is the dart count
// attributed to the completed step.
func (n *node) fullScanChoose(w *Walker, deg int, st *workerState, trials int64) (graph.VertexID, bool) {
	bc := &st.counters
	if cap(st.scanWeights) < deg {
		st.scanWeights = make([]float64, deg) //kk:alloc-ok amortized: scan scratch grows to the max degree seen, then is reused
	}
	weights := st.scanWeights[:deg]
	total := 0.0
	for i := 0; i < deg; i++ {
		e := n.g.EdgeAt(w.Cur, i)
		pd := n.alg.EdgeDynamicComp(w, e, 0, false)
		bc.edgeProbEvals++
		weights[i] = float64(n.alg.staticWeight(n.g, w.Cur, i)) * pd
		total += weights[i]
	}
	if total <= 0 {
		return 0, false
	}
	if err := st.scanITS.ResetFloat64(weights); err != nil {
		panic(fmt.Sprintf("core: full-scan fallback at vertex %d: %v", w.Cur, err)) //kk:alloc-ok panic path: invalid full-scan weights abort the run, never steady state
	}
	bc.trials++
	n.observeStep(w, trials, bc)
	return n.g.Neighbors(w.Cur)[st.scanITS.Sample(&w.R)], true
}

// relocate places w at dst, updating state, visit counts, and path, and
// migrating the walker if dst is owned by another node. A migrated
// walker's storage is recycled after encoding.
func (n *node) relocate(w *Walker, dst graph.VertexID, st *workerState) bool {
	if k := n.alg.HistorySize; k > 0 {
		w.History = append(w.History, w.Cur)
		if len(w.History) > k {
			copy(w.History, w.History[len(w.History)-k:])
			w.History = w.History[:k]
		}
	}
	w.Prev = w.Cur
	w.Cur = dst
	w.Step++
	w.sampling = false
	if w.Path != nil {
		w.Path = append(w.Path, dst)
	}
	if n.res.Visits != nil {
		atomic.AddInt64(&n.res.Visits[dst], 1)
	}
	if n.part.Owns(n.rank, dst) {
		return true
	}
	if n.traces(w) {
		n.traceWalkerEvent(w, WalkerMigrate, dst, 0, n.part.Owner(dst))
	}
	if n.localMig != nil {
		// Object-path migration: the walker itself transfers to the
		// destination rank (and is eventually recycled into that rank's
		// arena), so its storage is NOT freed here.
		st.out.addLocalMigration(n.part.Owner(dst), w)
		return false
	}
	st.out.addMigration(n.part.Owner(dst), w)
	st.free = append(st.free, w)
	return false
}

// finish retires a walker and records its results. The recorded path is
// detached before the walker's storage is recycled.
func (n *node) finish(w *Walker, st *workerState) {
	st.counters.terminations++
	n.res.Lengths.Observe(int64(w.Step))
	if n.res.Paths != nil {
		n.res.Paths[w.ID] = w.Path
		w.Path = nil
	}
	st.free = append(st.free, w)
}

// receiveWalkers decodes a migration batch into the local walker list,
// reusing arena walkers recycled by earlier supersteps.
//
//kk:hotpath
func (n *node) receiveWalkers(payload []byte) error {
	for len(payload) > 0 {
		w := n.pool.get()
		rest, err := decodeWalkerInto(w, payload)
		if err != nil {
			n.pool.put(w)
			return err
		}
		payload = rest
		n.setTraced(w)
		n.walkers = append(n.walkers, w)
	}
	return nil
}

// queryRecordLen is the wire size of one state-query record.
const queryRecordLen = 20

// phaseB answers all incoming state queries, processing chunks of records
// in parallel (chunk size 128, matching the walker chunks) and flushing
// each worker's batched responses.
//
//kk:phase query
func (n *node) phaseB(queryMsgs []transport.Message, light bool) error {
	var total int
	for _, m := range queryMsgs {
		if len(m.Payload)%queryRecordLen != 0 {
			return fmt.Errorf("core: malformed query batch (%d bytes)", len(m.Payload))
		}
		records := len(m.Payload) / queryRecordLen
		total += records
		n.counters.QueryBatch.Observe(int64(records))
	}
	if total == 0 {
		return nil
	}

	// Flatten message boundaries into a global record index space (spans
	// and errs live in node scratch — phase B runs on the loop goroutine).
	if cap(n.spansBuf) < len(queryMsgs) {
		n.spansBuf = make([]querySpan, len(queryMsgs))
	}
	spans := n.spansBuf[:len(queryMsgs)]
	idx := 0
	for i, m := range queryMsgs {
		spans[i] = querySpan{m: m, first: idx}
		idx += len(m.Payload) / queryRecordLen
	}

	workers := n.cfg.Workers
	if light || workers > (total+walkerChunk-1)/walkerChunk {
		workers = 1
	}
	var next atomic.Int64
	if cap(n.errsBuf) < workers {
		n.errsBuf = make([]error, workers)
	}
	errs := n.errsBuf[:workers]
	clear(errs)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			out := n.wstates[wk].out // flushed (empty) since phase A
			for {
				base := int(next.Add(walkerChunk)) - walkerChunk
				if base >= total {
					break
				}
				end := base + walkerChunk
				if end > total {
					end = total
				}
				if err := n.answerQueryRange(spans, base, end, out); err != nil {
					errs[wk] = err
					break
				}
			}
			out.flush(n.ep, n.localMig)
		}(wk)
	}
	wg.Wait()
	// The spans scratch outlives the superstep; the payload views inside
	// its Messages must not.
	clear(spans)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// querySpan indexes one incoming query batch within the flattened global
// record space of a phase B.
type querySpan struct {
	m     transport.Message
	first int // global index of the batch's first record
}

// answerQueryRange answers the global record range [base, end) against the
// flattened query spans.
//
//kk:hotpath
func (n *node) answerQueryRange(spans []querySpan, base, end int, out *outBufs) error {
	// Locate the span containing base.
	si := 0
	for si+1 < len(spans) && spans[si+1].first <= base {
		si++
	}
	for i := base; i < end; {
		sp := spans[si]
		count := len(sp.m.Payload) / queryRecordLen
		local := i - sp.first
		if local >= count {
			si++
			continue
		}
		off := local * queryRecordLen
		payload := sp.m.Payload
		walkerID := int64(binary.LittleEndian.Uint64(payload[off:]))
		target := binary.LittleEndian.Uint32(payload[off+8:])
		arg := binary.LittleEndian.Uint64(payload[off+12:])
		if !n.part.Owns(n.rank, target) {
			return fmt.Errorf("core: query for vertex %d routed to wrong node %d", target, n.rank) //kk:alloc-ok error path: a misrouted query aborts the run, never steady state
		}
		out.addResponse(sp.m.From, walkerID, n.alg.answerQuery(n.g, target, arg))
		i++
	}
	return nil
}

// applyResponses resolves parked walkers' pending darts; walkers it migrates
// stay in n.walkers until run filters them out. A resolution compares the
// stored Y against Pd only (AcceptMain consumes no RNG).
//
//kk:hotpath
func (n *node) applyResponses(payload []byte, st *workerState) error {
	if len(payload)%16 != 0 {
		return fmt.Errorf("core: malformed response batch (%d bytes)", len(payload)) //kk:alloc-ok error path: a malformed response batch aborts the run, never steady state
	}
	// Gather, then resolve, a chunk at a time: the short gather loop lets
	// the CPU overlap the cache misses on parked walkers and their edges.
	var ws [64]*Walker
	var es [64]graph.Edge
	for base := 0; base < len(payload); base += len(ws) * 16 {
		m := 0
		var err error
		for off := base; off < len(payload) && m < len(ws); off += 16 {
			id := binary.LittleEndian.Uint64(payload[off:])
			if id >= uint64(len(n.parkedByID)) || n.parkedByID[id] == nil {
				err = fmt.Errorf("core: response for unknown walker %d", int64(id)) //kk:alloc-ok error path: a response for an unknown walker aborts the run, never steady state
				break
			}
			w := n.parkedByID[id]
			n.parkedByID[id], w.awaiting = nil, false
			ws[m], es[m] = w, n.g.EdgeAt(w.Cur, int(w.pendingEdge))
			m++
		}
		for j, w := range ws[:m] {
			pd := n.alg.EdgeDynamicComp(w, es[j], binary.LittleEndian.Uint64(payload[base+16*j+8:]), true)
			st.counters.edgeProbEvals++
			// An accepted dart was thrown in an earlier phase A burst whose
			// count is no longer tracked; observe the resolving dart alone. A
			// rejected walker stays mid-step (sampling == true) and retries
			// next superstep — the paper's "less fortunate ones stuck at their
			// current vertex for the next iteration".
			if n.rejectionOf(w.Cur).AcceptMain(sampling.Proposal{EdgeIdx: int(w.pendingEdge), Appendix: -1, Y: w.pendingY}, pd) {
				n.observeStep(w, 1, &st.counters)
				n.applyAction(w, actMove, es[j].Dst, st)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (n *node) rejectionOf(v graph.VertexID) *sampling.Rejection {
	return n.rejections[v-n.lo]
}
