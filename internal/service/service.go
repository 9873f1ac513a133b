// Package service is the long-running walk job server: a registry of
// named dynamic graphs (immutable published epochs over a live delta
// layer, internal/dyngraph), a bounded-worker scheduler with a FIFO
// admission queue, and an HTTP/JSON control surface (cmd/kkserve). It
// turns the one-shot kkwalk flow — load graph, run walk, print report,
// exit — into a daemon that amortizes graph loading across many runs,
// accepts edge ingest (POST /graphs/{name}/edges) and compaction while
// jobs run, pins each job to its admission epoch, and supports
// cooperative cancellation of in-flight engine runs via
// core.Config.Cancel.
//
// The service layer is wall-clock-bearing by design (job timestamps,
// HTTP) and is deliberately outside the determinism-linted package set;
// each job's engine run remains bit-deterministic in
// (graph, algorithm, params, seed, walkers).
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"knightking/internal/dyngraph"
)

// Config shapes a Service.
type Config struct {
	// Addr is the listen address for Start (e.g. "127.0.0.1:7474";
	// ":0" picks a free port).
	Addr string
	// Workers is the scheduler pool size — the number of jobs that may
	// execute concurrently (default 2).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it get
	// 429 (default 64).
	QueueDepth int
	// CheckpointRoot, when set, enables per-job checkpointing: a job with
	// checkpoint_every > 0 snapshots under <CheckpointRoot>/<job-id>/.
	CheckpointRoot string
	// CompactAfter, when positive, auto-compacts a graph's delta overlay
	// after that many ingested deltas accumulate (0 = explicit
	// POST /graphs/{name}/compact only).
	CompactAfter int
}

// Service owns the graph registry, the scheduler, and (after Start) the
// HTTP listener.
type Service struct {
	Graphs *GraphRegistry

	cfg   Config
	sched *scheduler

	srv *http.Server
	ln  net.Listener
}

// New builds a Service and starts its worker pool; call Start to serve
// HTTP, or Handler to mount it in a test server.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	graphs := NewGraphRegistry(dyngraph.Options{CompactAfter: cfg.CompactAfter})
	return &Service{
		Graphs: graphs,
		cfg:    cfg,
		sched:  newScheduler(graphs, cfg.Workers, cfg.QueueDepth, cfg.CheckpointRoot),
	}
}

// Handler returns the service's HTTP handler (for httptest and embedding).
func (s *Service) Handler() http.Handler {
	return s.handler()
}

// Submit enqueues a job directly (the HTTP layer and tests share this
// path).
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.sched.Submit(spec)
}

// Start begins serving on cfg.Addr.
func (s *Service) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go s.srv.Serve(ln) //kk:goro-ok joined out of band: Close drains the http.Server via Shutdown and Serve returns
	return nil
}

// Addr returns the bound listen address after Start.
func (s *Service) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// DefaultShutdownTimeout bounds Close's graceful HTTP drain.
const DefaultShutdownTimeout = 5 * time.Second

// Close drains the HTTP server gracefully — the listener stops accepting,
// in-flight requests (a /metrics scrape, a trace export) run to
// completion, bounded by DefaultShutdownTimeout — then cancels every
// outstanding job and joins the worker pool. Connections still open after
// the deadline are dropped so a wedged client cannot block process exit.
func (s *Service) Close() error {
	return s.close(DefaultShutdownTimeout)
}

func (s *Service) close(timeout time.Duration) error {
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err = s.srv.Shutdown(ctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			err = s.srv.Close()
		}
	}
	s.sched.Shutdown()
	return err
}
