package service

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"knightking/internal/core"
	"knightking/internal/job"
	"knightking/internal/obs"
	"knightking/internal/stats"
)

// ErrQueueFull is returned by Submit when the admission queue is at its
// depth limit; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrUnknownJob is returned for job IDs the scheduler has never seen (or
// whose records were deleted).
var ErrUnknownJob = errors.New("service: unknown job")

// scheduler runs submitted jobs through a bounded worker pool: admission
// is a fixed-depth FIFO (a buffered channel, so ordering and backpressure
// come from the runtime, not bookkeeping), and each of workers goroutines
// executes one job at a time through the job runner (internal/job). Every
// job gets its own stats.Counters and cancel channel, so concurrent jobs
// sharing one immutable *graph.Graph stay bit-deterministic and
// individually abortable.
type scheduler struct {
	graphs         *GraphRegistry
	queue          chan *Job
	checkpointRoot string

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for GET /jobs
	nextID int64

	queued atomic.Int64

	metrics *serviceMetrics

	wg   sync.WaitGroup
	stop chan struct{}
}

// serviceMetrics is the serving layer's own counter set, exposed on
// /metrics next to the aggregated engine counters.
type serviceMetrics struct {
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	rejected  atomic.Int64

	// Ingest/compaction counters and timings. The service layer is
	// wall-clock-bearing (outside the determinism-linted set), so timing
	// the mutating endpoints here keeps clocks out of internal/dyngraph.
	ingestBatches  atomic.Int64
	ingestEdges    atomic.Int64
	ingestRejected atomic.Int64

	ingestBatchSize *obs.Histogram
	ingestApplyUs   *obs.Histogram
	compactUs       *obs.Histogram

	// queueWaitNs observes submission→start latency per started job; it is
	// the early-warning signal for an undersized worker pool (renders as
	// kk_job_queue_wait_nanos on /metrics).
	queueWaitNs *obs.Histogram

	// engine accumulates the post-join counter snapshots of finished jobs —
	// the service-lifetime totals behind the kk_*_total families.
	engineMu sync.Mutex
	engine   stats.Counters
}

func newServiceMetrics() *serviceMetrics {
	return &serviceMetrics{
		ingestBatchSize: obs.NewHistogram("serve_ingest_batch_edges", "Deltas per accepted ingest batch."),
		ingestApplyUs:   obs.NewHistogram("serve_ingest_apply_us", "Microseconds per accepted ingest batch (apply + epoch publish)."),
		compactUs:       obs.NewHistogram("serve_compact_us", "Microseconds per compaction."),
		queueWaitNs:     obs.NewHistogram("job_queue_wait_nanos", "Nanoseconds each started job spent queued (submission to engine start)."),
	}
}

func newScheduler(graphs *GraphRegistry, workers, queueDepth int, checkpointRoot string) *scheduler {
	s := &scheduler{
		graphs:         graphs,
		queue:          make(chan *Job, queueDepth),
		checkpointRoot: checkpointRoot,
		jobs:           make(map[string]*Job),
		metrics:        newServiceMetrics(),
		stop:           make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates spec, assigns an ID, and enqueues the job. The spec is
// normalized in place before the job record is created, so the stored spec
// shows the effective parameters. The graph's current epoch is pinned
// here, at admission: normalization, the engine run, and the final report
// all read that one immutable snapshot, so deltas ingested while the job
// is queued or running cannot change its output.
func (s *scheduler) Submit(spec JobSpec) (*Job, error) {
	dyn, ok := s.graphs.Get(spec.Graph)
	if !ok {
		return nil, fmt.Errorf("service: unknown graph %q", spec.Graph)
	}
	epoch := dyn.Epoch()
	if err := spec.normalize(epoch.View()); err != nil {
		return nil, fmt.Errorf("service: invalid job spec: %w", err)
	}

	s.mu.Lock()
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.nextID),
		Spec:      spec,
		epoch:     epoch,
		epochID:   epochID(epoch),
		cancel:    make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	// Record before enqueueing so a GET racing the submission finds the
	// job; unwind if the queue rejects it.
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()

	select {
	case s.queue <- j:
		s.queued.Add(1)
		s.metrics.submitted.Add(1)
		return j, nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.nextID--
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Get returns a job by ID.
func (s *scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every retained job's status in submission order.
func (s *scheduler) List() []JobStatus {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel aborts a queued or running job. Queued jobs transition to
// cancelled immediately; running jobs get their cancel channel closed and
// transition when the engine leaves at the next superstep barrier.
// Cancelling a terminal job is a no-op reporting its state.
func (s *scheduler) Cancel(id string) (JobState, error) {
	j, ok := s.Get(id)
	if !ok {
		return "", ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		// The worker that eventually dequeues it sees the terminal state
		// and skips; no engine run ever starts.
		s.cancelQueued(j)
	case StateRunning:
		j.requestCancel()
	}
	return j.state, nil
}

// cancelQueued moves a queued job straight to cancelled and releases its
// pinned epoch. The caller holds j.mu.
func (s *scheduler) cancelQueued(j *Job) {
	j.state = StateCancelled
	j.finished = time.Now()
	j.epoch = nil
	s.metrics.cancelled.Add(1)
}

// Remove deletes a terminal job's record (result retention management);
// it refuses for queued/running jobs, which must be cancelled first.
func (s *scheduler) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		return fmt.Errorf("service: job %s is %s; cancel it before deleting", id, j.state)
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}

// Counts returns the per-state job counts for /statusz and the job gauges.
func (s *scheduler) Counts() map[JobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[JobState]int, 5)
	for _, j := range s.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

// EngineSnapshot returns the service-lifetime engine counter totals:
// finished jobs' post-join snapshots plus the live counters of currently
// running jobs (per-field consistent, per the stats.Counters contract).
func (s *scheduler) EngineSnapshot() stats.Snapshot {
	var agg stats.Counters
	s.metrics.engineMu.Lock()
	agg.Add(s.metrics.engine.Snapshot())
	s.metrics.engineMu.Unlock()
	s.mu.Lock()
	live := make([]*stats.Counters, 0, 4)
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.counters != nil {
			live = append(live, j.counters)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, c := range live {
		agg.Add(c.Snapshot())
	}
	return agg.Snapshot()
}

// Shutdown cancels every queued and running job and waits for the workers
// to drain. Safe to call once.
func (s *scheduler) Shutdown() {
	close(s.stop)
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			s.cancelQueued(j)
		case StateRunning:
			j.requestCancel()
		}
		j.mu.Unlock()
	}
	s.wg.Wait()
}

// worker is one pool goroutine: dequeue, run, repeat until shutdown.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.queued.Add(-1)
			s.runJob(j)
		}
	}
}

// runJob executes one job through the engine and records the outcome.
// The graph comes from the job's pinned epoch, never a registry re-lookup:
// a job dequeued after ten ingest batches still walks the exact snapshot
// it was admitted on.
func (s *scheduler) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting: cancelQueued released the epoch
		j.mu.Unlock()
		return
	}
	epoch := j.epoch
	j.state = StateRunning
	j.started = time.Now()
	wiring := job.Wiring{
		Nodes: j.Spec.Nodes,
		// The epoch's incrementally maintained alias rows; the engine
		// uses them where they apply exactly and builds its own
		// otherwise.
		Samplers:    epoch,
		Trace:       j.Spec.Trace,
		TraceSample: j.Spec.TraceSample,
		TraceLabel:  j.ID + " " + j.Spec.Alg,
		Cancel:      j.cancel,
	}
	if s.checkpointRoot != "" && j.Spec.CheckpointEvery > 0 {
		wiring.CheckpointDir = filepath.Join(s.checkpointRoot, j.ID)
	}
	run, err := job.Prepare(j.Spec.Spec, epoch.View(), wiring)
	if err == nil {
		j.counters = run.Counters
		j.trace = run.Trace
		j.ckptDir = wiring.CheckpointDir
	}
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.metrics.queueWaitNs.Observe(wait.Nanoseconds())
	if err != nil {
		s.finish(j, nil, nil, err)
		return
	}
	res, rep, err := run.Run()
	s.finish(j, res, &rep, err)
}

// finish records a job's terminal state, folds its counters into the
// service totals, and releases the job's pinned epoch.
func (s *scheduler) finish(j *Job, res *core.Result, rep *stats.Report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epoch = nil
	j.finished = time.Now()
	j.counters = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.report = rep
		j.lengths = walkLengths{Mean: res.Lengths.Mean(), Max: res.Lengths.Max()}
		s.metrics.completed.Add(1)
		s.foldEngine(res.Counters)
	case errors.Is(err, core.ErrCancelled):
		j.state = StateCancelled
		j.errMsg = err.Error()
		s.metrics.cancelled.Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.metrics.failed.Add(1)
	}
}

func (s *scheduler) foldEngine(snap stats.Snapshot) {
	s.metrics.engineMu.Lock()
	s.metrics.engine.Add(snap)
	s.metrics.engineMu.Unlock()
}
