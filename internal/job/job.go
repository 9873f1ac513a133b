// Package job is where a walk job meets the engine. kkwalk, kkrank
// (through internal/coord) and kkserve (through internal/service) each
// hand it a Spec, a graph and a Wiring — what their transports and I/O
// differ in — and it does the rest once for all three: the engine config,
// the walker default, the checkpoint store and resume load, the trace
// collector, the panic-to-error guard and the run report.
package job

import (
	"flag"
	"fmt"
	"time"

	"knightking/internal/alg"
	"knightking/internal/checkpoint"
	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/obs"
	"knightking/internal/obs/tracelog"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

// Spec is one walk job: the walk program plus the run shape every front
// end shares. Its JSON keys are those of kkcoord's job spec and kkserve's
// POST /jobs body; RegisterFlags binds the same values to kkwalk's and
// kkcoord's flags.
type Spec struct {
	// Spec is the walk program: alg and its parameters.
	alg.Spec
	// Seed pins the run: the same spec on the same graph walks
	// bit-identically under every front end.
	Seed uint64 `json:"seed"`
	// Walkers is the walker count (0 = |V|).
	Walkers int `json:"walkers,omitempty"`
	// Workers is the computation goroutine count per rank (0 = the
	// engine's default).
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery is the snapshot period, in supersteps, of a run that
	// checkpoints.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// RegisterFlags binds -walkers -seed -workers -checkpoint-every and the
// walk program's flags (alg.Spec.RegisterFlags) to s.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	s.Spec.RegisterFlags(fs)
	fs.IntVar(&s.Walkers, "walkers", 0, "walker count (0 = |V|)")
	fs.Uint64Var(&s.Seed, "seed", 1, "run seed")
	fs.IntVar(&s.Workers, "workers", 4, "worker goroutines per rank")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 16, "supersteps between checkpoints")
}

// Validate normalizes the walk program in place and rejects a run shape
// no front end can run. checkpointDir is where the run snapshots ("" =
// nowhere); a run that checkpoints needs an interval of at least 1.
func (s *Spec) Validate(checkpointDir string) error {
	if err := s.Spec.Normalize(); err != nil {
		return err
	}
	if s.Walkers < 0 || s.Workers < 0 {
		return fmt.Errorf("walkers, workers must be non-negative")
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("negative checkpoint interval %d", s.CheckpointEvery)
	}
	if checkpointDir != "" && s.CheckpointEvery < 1 {
		return fmt.Errorf("checkpoint interval %d must be >= 1 to checkpoint into %s", s.CheckpointEvery, checkpointDir)
	}
	return nil
}

// Resolve validates s for a run on g and fills the walker default, |V|,
// in place, so the checkpoint meta, the report and a service's job status
// all show the walker count the engine runs.
func (s *Spec) Resolve(g *graph.Graph, checkpointDir string) error {
	if err := s.Validate(checkpointDir); err != nil {
		return err
	}
	if s.Walkers == 0 {
		s.Walkers = g.NumVertices()
	}
	return nil
}

// ErrNoCheckpoint is wrapped by Prepare and PrepareRank when a resume
// finds no complete checkpoint. kkwalk reports it; a kkrank rank that died
// before the first checkpoint committed starts fresh instead.
var ErrNoCheckpoint = checkpoint.ErrNone

// Wiring is what a front end brings to a run beyond the spec and the
// graph: only what the front ends differ in.
type Wiring struct {
	// Nodes is the rank count of a run that hosts every rank in this
	// process (Run; 0 = 1). RunNode takes the count from its endpoint.
	Nodes int
	// PartitionStarts pins the 1-D partition (required for a
	// partition-local graph; every rank must pass the same boundaries).
	PartitionStarts []graph.VertexID

	// CheckpointDir, when set, snapshots the run there every
	// Spec.CheckpointEvery supersteps. Resume first restores the newest
	// complete checkpoint in it (ignored without CheckpointDir).
	CheckpointDir string
	Resume        bool

	// Samplers supplies prebuilt alias rows (kkserve's graph epoch).
	Samplers core.SamplerProvider
	// Registry, when set, is the run's observer and reads its live
	// counters (kkwalk's telemetry); the trace collector rides it.
	// Observer watches a run that has neither a registry nor a trace.
	Registry *obs.Registry
	Observer core.Observer
	// Trace records the run's causal trace, sampling one walker journey
	// in TraceSample (0 = the collector's default), labelled TraceLabel
	// (default: the algorithm name). Without a registry the collector is
	// the observer too.
	Trace       bool
	TraceSample int64
	TraceLabel  string

	// Cancel, RecordPaths, CountVisits, NetTimeout and LightThreshold
	// are passed to the core.Config fields of the same names.
	Cancel         <-chan struct{}
	RecordPaths    bool
	CountVisits    bool
	NetTimeout     time.Duration
	LightThreshold int
}

// Job is a prepared run: its engine config is built, its checkpoint store
// open and its resume state loaded. Start it with Run, or with RunNode for
// one rank of a multi-process job.
type Job struct {
	// Counters are the run's live engine counters (read them mid-run per
	// the stats.Counters contract).
	Counters *stats.Counters
	// Trace is the run's trace collector, nil unless Wiring.Trace.
	Trace *tracelog.Collector
	// ResumeIter is the superstep the run resumes from (0 = fresh).
	ResumeIter int

	cfg   core.Config
	reg   *obs.Registry
	ranks int
}

// Prepare readies a run of every rank in this process (Wiring.Nodes
// ranks); start it with Run.
func Prepare(spec Spec, g *graph.Graph, w Wiring) (*Job, error) {
	return prepare(spec, g, w, -1)
}

// PrepareRank readies rank's share of a multi-process run: a resume loads
// only that rank's checkpoint segment. Start it with RunNode once the
// rank's endpoint is up.
func PrepareRank(spec Spec, g *graph.Graph, rank int, w Wiring) (*Job, error) {
	return prepare(spec, g, w, rank)
}

// prepare builds the run; rank < 0 means every rank runs in process.
func prepare(spec Spec, g *graph.Graph, w Wiring, rank int) (*Job, error) {
	if err := spec.Resolve(g, w.CheckpointDir); err != nil {
		return nil, err
	}
	program, err := spec.Build()
	if err != nil {
		return nil, err
	}
	j := &Job{reg: w.Registry, ranks: max(w.Nodes, 1)}
	j.cfg = core.Config{
		Graph:           g,
		Algorithm:       program,
		NumNodes:        w.Nodes,
		Workers:         spec.Workers,
		NumWalkers:      spec.Walkers,
		Seed:            spec.Seed,
		RecordPaths:     w.RecordPaths,
		CountVisits:     w.CountVisits,
		Samplers:        w.Samplers,
		LightThreshold:  w.LightThreshold,
		NetTimeout:      w.NetTimeout,
		PartitionStarts: w.PartitionStarts,
		Cancel:          w.Cancel,
		Observer:        w.Observer,
	}

	if w.CheckpointDir != "" {
		meta := checkpoint.Meta{
			Seed:        spec.Seed,
			NumWalkers:  uint64(spec.Walkers),
			NumVertices: uint64(g.NumVertices()),
			Algorithm:   program.Name,
		}
		store, err := checkpoint.NewStore(w.CheckpointDir, spec.CheckpointEvery, meta)
		if err != nil {
			return nil, err
		}
		j.cfg.Checkpoint = store
		if w.Resume {
			var cp *checkpoint.Checkpoint
			if rank < 0 {
				cp, err = checkpoint.Load(w.CheckpointDir)
			} else {
				cp, err = checkpoint.LoadRank(w.CheckpointDir, rank)
			}
			if err != nil {
				return nil, err
			}
			if err := cp.Validate(meta); err != nil {
				return nil, err
			}
			j.cfg.Restore = cp.RestoreState()
			j.ResumeIter = cp.Iteration
		}
	}

	if w.Trace {
		label := w.TraceLabel
		if label == "" {
			label = program.Name
		}
		j.Trace = tracelog.New(tracelog.Options{SampleEvery: w.TraceSample, Ranks: j.ranks, Job: label})
		// One collector takes walker journeys and exchange spans as the
		// tracer, and superstep spans as the observer unless a registry
		// observes and forwards them.
		j.cfg.Trace = j.Trace
		j.cfg.Observer = j.Trace
	}
	if reg := w.Registry; reg != nil {
		j.cfg.Observer = reg
		j.Counters = reg.Counters()
		reg.SetRunInfo(program.Name, g.NumVertices(), g.NumEdges(), j.ranks)
		if j.Trace != nil {
			reg.SetTrace(j.Trace)
		}
	} else {
		j.Counters = &stats.Counters{}
	}
	j.cfg.Counters = j.Counters
	return j, nil
}

// Run runs every rank in this process and reports. An engine panic on
// this goroutine (a zero-weight vertex found at set-up, say) comes back as
// the run's error.
func (j *Job) Run() (res *core.Result, rep stats.Report, err error) {
	defer recoverPanic(&err)
	if res, err = core.Run(j.cfg); err != nil {
		return nil, rep, err
	}
	return res, j.report(res, j.ranks), nil
}

// RunNode runs this process's rank over ep and reports its share. An
// engine panic on this goroutine comes back as the run's error.
func (j *Job) RunNode(ep transport.Endpoint) (res *core.Result, rep stats.Report, err error) {
	defer recoverPanic(&err)
	if res, err = core.RunNode(j.cfg, ep); err != nil {
		return nil, rep, err
	}
	return res, j.report(res, ep.Size()), nil
}

// recoverPanic turns a panic of the deferring goroutine into *err.
func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("engine panic: %v", r)
	}
}

// report builds the run's report from the post-join counter snapshot, so
// every cross-field ratio in it is exact.
func (j *Job) report(res *core.Result, ranks int) stats.Report {
	g := j.cfg.Graph
	rep := stats.NewReport(res.Counters, stats.RunInfo{
		Algorithm:   j.cfg.Algorithm.Name,
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		Ranks:       ranks,
		Walkers:     int64(j.cfg.NumWalkers),
		Supersteps:  res.Iterations,
		LightSupers: res.LightIterations,
		Duration:    res.Duration,
		Setup:       res.SetupDuration,
	})
	switch {
	case j.reg != nil:
		j.reg.FillReport(&rep)
	case j.Trace != nil:
		rep.CriticalPath = j.Trace.CriticalPath()
	}
	return rep
}
