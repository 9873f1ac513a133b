package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"knightking/internal/dyngraph"
	"knightking/internal/graph"
	"knightking/internal/obs"
)

// handler wires the service's HTTP surface. Routing uses the Go 1.22
// method+wildcard ServeMux patterns, so there is no router dependency.
func (s *Service) handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleIngestEdges)
	mux.HandleFunc("POST /graphs/{name}/compact", s.handleCompactGraph)
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs", s.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleGetResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleGetTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDeleteJob)

	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a {"error": ...} body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Graphs.List()})
}

// loadGraphRequest is the POST /graphs payload. Path names a file on the
// server's filesystem — the daemon loads graphs, clients name them.
type loadGraphRequest struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Binary     bool   `json:"binary,omitempty"`
	Undirected bool   `json:"undirected,omitempty"`
}

func (s *Service) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var req loadGraphRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, "name and path are required")
		return
	}
	g, err := graph.Open(req.Path, req.Binary, req.Undirected)
	if err != nil {
		writeError(w, http.StatusBadRequest, "load graph: %v", err)
		return
	}
	info, err := s.Graphs.Register(req.Name, g)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already bound") {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// ingestRequest is the POST /graphs/{name}/edges payload: a batch of
// edge deltas applied atomically — all land in one new epoch, or (on any
// invalid delta) none do and the epoch is unchanged.
type ingestRequest struct {
	Edges []dyngraph.Delta `json:"edges"`
}

// ingestResponse reports the post-apply graph state alongside how many
// deltas the batch carried.
type ingestResponse struct {
	Applied int       `json:"applied"`
	Graph   GraphInfo `json:"graph"`
}

func (s *Service) handleIngestEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	dyn, ok := s.Graphs.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	var req ingestRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "edges must be a non-empty array of deltas")
		return
	}
	m := s.sched.metrics
	start := time.Now()
	if _, err := dyn.Apply(req.Edges); err != nil {
		m.ingestRejected.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m.ingestApplyUs.Observe(time.Since(start).Microseconds())
	m.ingestBatches.Add(1)
	m.ingestEdges.Add(int64(len(req.Edges)))
	m.ingestBatchSize.Observe(int64(len(req.Edges)))
	info, _ := s.Graphs.Info(name)
	writeJSON(w, http.StatusOK, ingestResponse{Applied: len(req.Edges), Graph: info})
}

func (s *Service) handleCompactGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	dyn, ok := s.Graphs.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	m := s.sched.metrics
	start := time.Now()
	if _, err := dyn.Compact(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	m.compactUs.Observe(time.Since(start).Microseconds())
	info, _ := s.Graphs.Info(name)
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeBody(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.List()})
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleGetResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res, st, done := j.Result()
	if !done {
		// 409: the job exists but has no result in this state — the body
		// carries the status so pollers can branch without a second call.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleGetTrace serves a traced job's causal trace as Perfetto JSON.
// The collector is safe to read mid-run, so a trace of a running job shows
// the supersteps completed so far; terminal jobs keep their trace until
// the record is deleted.
func (s *Service) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	tc := j.Trace()
	if tc == nil {
		if !j.Spec.Trace {
			writeError(w, http.StatusNotFound,
				"job %s was not submitted with \"trace\": true", j.ID)
			return
		}
		// Traced but not started: the collector is created at engine start.
		writeError(w, http.StatusConflict, "job %s has not started yet", j.ID)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := tc.WritePerfetto(w); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Service) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		// Terminal job: DELETE discards the retained record.
		if err := s.sched.Remove(id); err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	state, err := s.sched.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(state)})
}

// handleMetrics composes the Prometheus page: service-layer job counters
// and gauges, then the service-lifetime engine counter aggregate in the
// same kk_ families the admin server exports.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.sched.metrics
	obs.WriteCounter(w, "serve_jobs_submitted_total", "Jobs accepted into the queue.", m.submitted.Load())
	obs.WriteCounter(w, "serve_jobs_completed_total", "Jobs finished successfully.", m.completed.Load())
	obs.WriteCounter(w, "serve_jobs_failed_total", "Jobs that ended in an error.", m.failed.Load())
	obs.WriteCounter(w, "serve_jobs_cancelled_total", "Jobs cancelled while queued or running.", m.cancelled.Load())
	obs.WriteCounter(w, "serve_jobs_rejected_total", "Submissions rejected by the queue depth limit.", m.rejected.Load())
	counts := s.sched.Counts()
	obs.WriteGauge(w, "serve_queue_depth", "Jobs waiting in the admission queue.", s.sched.queued.Load())
	obs.WriteGauge(w, "serve_queue_capacity", "Admission queue depth limit.", int64(cap(s.sched.queue)))
	obs.WriteGauge(w, "serve_jobs_running", "Jobs currently executing.", int64(counts[StateRunning]))
	// Per-state breakdown of every retained job record; serve_jobs_running
	// above stays for dashboards that predate the labeled family.
	states := []obs.LabeledValue{
		{Label: string(StateQueued), Value: int64(counts[StateQueued])},
		{Label: string(StateRunning), Value: int64(counts[StateRunning])},
		{Label: string(StateDone), Value: int64(counts[StateDone])},
		{Label: string(StateFailed), Value: int64(counts[StateFailed])},
		{Label: string(StateCancelled), Value: int64(counts[StateCancelled])},
	}
	obs.WriteLabeledGauge(w, "serve_jobs", "Retained job records by state.", "state", states)
	obs.WriteGauge(w, "serve_graphs", "Graphs in the registry.", int64(s.Graphs.Len()))
	obs.WriteGauge(w, "serve_workers", "Scheduler worker pool size.", int64(s.cfg.Workers))

	batches, deltas, compactions, pending := s.Graphs.DeltaTotals()
	obs.WriteCounter(w, "serve_ingest_batches_total", "Edge delta batches accepted over HTTP.", m.ingestBatches.Load())
	obs.WriteCounter(w, "serve_ingest_edges_total", "Edge deltas accepted over HTTP.", m.ingestEdges.Load())
	obs.WriteCounter(w, "serve_ingest_rejected_total", "Ingest batches rejected as invalid.", m.ingestRejected.Load())
	obs.WriteCounter(w, "serve_apply_batches_total", "Delta batches applied across all graphs (any source).", batches)
	obs.WriteCounter(w, "serve_apply_deltas_total", "Deltas applied across all graphs (any source).", deltas)
	obs.WriteCounter(w, "serve_compactions_total", "Graph compactions, explicit and auto-triggered.", compactions)
	obs.WriteGauge(w, "serve_pending_deltas", "Deltas in overlays awaiting compaction, summed over graphs.", pending)

	// Per-graph epoch state, labeled by graph name (List is name-sorted,
	// so the page is deterministic).
	infos := s.Graphs.List()
	epochs := make([]obs.LabeledValue, len(infos))
	deltaEdges := make([]obs.LabeledValue, len(infos))
	for i, gi := range infos {
		epochs[i] = obs.LabeledValue{Label: gi.Name, Value: int64(gi.Epoch)}
		deltaEdges[i] = obs.LabeledValue{Label: gi.Name, Value: gi.DeltaEdges}
	}
	obs.WriteLabeledGauge(w, "serve_graph_epoch", "Current published epoch per graph.", "graph", epochs)
	obs.WriteLabeledGauge(w, "serve_graph_delta_edges", "Net overlay edge delta per graph.", "graph", deltaEdges)

	obs.WriteHistogram(w, m.ingestBatchSize)
	obs.WriteHistogram(w, m.ingestApplyUs)
	obs.WriteHistogram(w, m.compactUs)
	obs.WriteHistogram(w, m.queueWaitNs)
	obs.WriteSnapshotMetrics(w, s.sched.EngineSnapshot())
}

func (s *Service) handleStatusz(w http.ResponseWriter, r *http.Request) {
	counts := s.sched.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":  s.Graphs.List(),
		"workers": s.cfg.Workers,
		"queue": map[string]any{
			"depth":    s.sched.queued.Load(),
			"capacity": cap(s.sched.queue),
		},
		"jobs": map[string]int{
			"queued":    counts[StateQueued],
			"running":   counts[StateRunning],
			"done":      counts[StateDone],
			"failed":    counts[StateFailed],
			"cancelled": counts[StateCancelled],
		},
	})
}

// decodeBody strictly decodes a bounded JSON request body.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %v", err)
	}
	return nil
}
