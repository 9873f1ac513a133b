package service

import (
	"fmt"
	"sync"
	"time"

	"knightking/internal/dyngraph"
	"knightking/internal/graph"
	"knightking/internal/job"
	"knightking/internal/obs/tracelog"
	"knightking/internal/stats"
)

// JobState is a job's position in the lifecycle
// queued → running → done | failed | cancelled.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the POST /jobs submission payload: which registered graph to
// walk, which algorithm with which parameters, and the run shape. Zero
// values take the documented defaults, and defaults are materialized at
// submission, so two specs that normalize identically produce bit-identical
// walk statistics (the engine is deterministic in (graph, seed, params)).
type JobSpec struct {
	// Graph names a registered graph (required).
	Graph string `json:"graph"`
	// Spec is the walk program — alg (required) and its parameters, with
	// the defaults alg.Spec.Normalize documents — and the run shape: seed,
	// walkers (default |V| of the named graph), workers (default 4), and
	// checkpoint_every, which with a service checkpoint root configured
	// snapshots the job's walk state every N supersteps under
	// <root>/<job-id>/ (0 disables). Identical (graph, alg, params, seed,
	// walkers) submissions return identical walk statistics.
	job.Spec
	// Nodes is the simulated rank count (default 1).
	Nodes int `json:"nodes,omitempty"`

	// Trace enables causal tracing for the job: superstep/phase spans,
	// exchange spans with peer attribution, and sampled walker journeys,
	// exported as Perfetto JSON at GET /jobs/{id}/trace (live while
	// running, retained after completion). Tracing cannot change walk
	// output; its only cost is the bounded trace ring.
	Trace bool `json:"trace,omitempty"`
	// TraceSample samples one in N walker journeys by walker ID (default
	// tracelog.DefaultSampleEvery; 1 traces every walker). Only meaningful
	// with Trace.
	TraceSample int64 `json:"trace_sample,omitempty"`
}

// normalize validates spec against the target graph and fills defaults
// in place. alg.Spec.Normalize rejects every walk parameter the alg
// constructors would panic on, so a malformed submission is a 400, never
// a dead scheduler worker.
func (s *JobSpec) normalize(g *graph.Graph) error {
	if err := s.Spec.Resolve(g, ""); err != nil {
		return err
	}
	if s.Biased && !g.Weighted() {
		return fmt.Errorf("biased walk requires a weighted graph")
	}
	if s.Nodes < 0 {
		return fmt.Errorf("nodes %d must be non-negative", s.Nodes)
	}
	if s.TraceSample < 0 {
		return fmt.Errorf("trace_sample %d must be non-negative", s.TraceSample)
	}
	if s.Nodes == 0 {
		s.Nodes = 1
	}
	return nil
}

// Job is one submitted walk run and its retained outcome. All mutable
// fields are guarded by mu; the scheduler is the only writer of state
// transitions, except that a queued job can be cancelled directly.
type Job struct {
	ID   string
	Spec JobSpec // normalized at submission

	// epoch is the graph epoch pinned at admission: the job validates and
	// runs against this immutable snapshot whatever lands after. Guarded
	// by mu and set to nil once the job is terminal, so a retained record
	// pins no old base CSR; epochID keeps reporting it.
	epoch   *dyngraph.Epoch
	epochID EpochID

	// cancel is closed (once) to request a cooperative engine abort; it is
	// wired into core.Config.Cancel.
	cancel     chan struct{}
	cancelOnce sync.Once

	mu        sync.Mutex
	state     JobState
	errMsg    string
	report    *stats.Report // retained for done jobs
	lengths   walkLengths
	ckptDir   string
	counters  *stats.Counters // live while running; engine-owned
	trace     *tracelog.Collector
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Trace returns the job's trace collector, or nil when the job was not
// submitted with Spec.Trace or has not started yet. The collector is safe
// to read concurrently with the running engine, so mid-run trace exports
// are allowed.
func (j *Job) Trace() *tracelog.Collector {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// walkLengths is the retained walk-length digest of a finished run.
type walkLengths struct {
	Mean float64 `json:"mean"`
	Max  int64   `json:"max"`
}

// requestCancel closes the job's cancel channel (idempotent).
func (j *Job) requestCancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// JobStatus is the GET /jobs/{id} payload.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Graph string   `json:"graph"`
	// EpochID identifies the graph snapshot the job was pinned to at
	// admission.
	EpochID
	Alg           string    `json:"alg"`
	Seed          uint64    `json:"seed"`
	Walkers       int       `json:"walkers"`
	Error         string    `json:"error,omitempty"`
	CheckpointDir string    `json:"checkpoint_dir,omitempty"`
	Trace         bool      `json:"trace,omitempty"`
	SubmittedAt   time.Time `json:"submitted_at"`
	StartedAt     time.Time `json:"started_at,omitzero"`
	FinishedAt    time.Time `json:"finished_at,omitzero"`
}

// Status snapshots the job's public state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:            j.ID,
		State:         j.state,
		Graph:         j.Spec.Graph,
		EpochID:       j.epochID,
		Alg:           j.Spec.Alg,
		Seed:          j.Spec.Seed,
		Walkers:       j.Spec.Walkers,
		Error:         j.errMsg,
		CheckpointDir: j.ckptDir,
		Trace:         j.Spec.Trace,
		SubmittedAt:   j.submitted,
		StartedAt:     j.started,
		FinishedAt:    j.finished,
	}
}

// JobResult is the GET /jobs/{id}/result payload of a done job: the
// engine's machine-independent run report plus the walk-length digest.
type JobResult struct {
	ID          string       `json:"id"`
	State       JobState     `json:"state"`
	Report      stats.Report `json:"report"`
	WalkLengths walkLengths  `json:"walk_lengths"`
}

// Result returns the retained result of a done job; ok is false (with the
// current status for error reporting) in every other state.
func (j *Job) Result() (JobResult, JobStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.report == nil {
		st := JobStatus{ID: j.ID, State: j.state, Error: j.errMsg}
		return JobResult{}, st, false
	}
	return JobResult{
		ID:          j.ID,
		State:       j.state,
		Report:      *j.report,
		WalkLengths: j.lengths,
	}, JobStatus{}, true
}
