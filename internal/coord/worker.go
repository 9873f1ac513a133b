package coord

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"knightking/internal/cluster"
	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/job"
	"knightking/internal/transport"
)

// Worker defaults.
const (
	// DefaultHeartbeatEvery is the worker's heartbeat period.
	DefaultHeartbeatEvery = 250 * time.Millisecond
	// DefaultAbortGrace is how long a worker waits after an abort for the
	// engine to reach a barrier (and exit via aligned cancellation) before
	// force-closing the data-plane endpoint under it.
	DefaultAbortGrace = 3 * time.Second
	// dialCoordTimeout bounds the initial control-plane dial.
	dialCoordTimeout = 10 * time.Second
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// CoordAddr is the coordinator's control address (required).
	CoordAddr string
	// ListenAddr is the data-plane listen address to bind; default
	// "127.0.0.1:0". The bound address is advertised in hello and the
	// listener is reused across mesh attempts (DialTCPGroupOn), so
	// failover never races on port rebinding.
	ListenAddr string
	// HeartbeatEvery / AbortGrace override the defaults above.
	HeartbeatEvery time.Duration
	AbortGrace     time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// worker is one kkrank process's control-plane state.
type worker struct {
	opts WorkerOptions
	ln   net.Listener
	cc   *controlConn

	cur atomic.Pointer[attempt]

	// graphCache reuses loaded graphs across attempts: a re-handout of the
	// same rank (the common failover case) skips the reload entirely.
	graphCache map[graphKey]*graph.Graph
}

type graphKey struct {
	path       string
	binary     bool
	undirected bool
	lo, hi     graph.VertexID
}

// attempt is one assignment's lifecycle, from assign to done/failed.
type attempt struct {
	a       *Assignment
	run     *job.Job
	cancel  chan struct{}
	once    sync.Once
	grace   *time.Timer
	running bool

	// superstep/walkers are set from the engine's superstep spans (attempt
	// is the run's core.Observer) and read by the heartbeat goroutine.
	superstep atomic.Int64
	walkers   atomic.Int64
	// ep holds the live endpoint (*as transport.Endpoint) once the mesh is
	// up, for the abort-grace force close.
	ep atomic.Value
}

// outcome is what the engine goroutine reports back to the main loop.
type outcome struct {
	attempt int
	res     *core.Result
	err     error
}

// OnSuperstep implements core.Observer: it records the rank's last
// completed superstep and the live walker count agreed at its barrier, the
// progress the next heartbeat reports.
func (at *attempt) OnSuperstep(span core.SuperstepSpan) {
	at.superstep.Store(int64(span.Iteration))
	at.walkers.Store(span.GlobalWalkers)
}

// abort requests aligned cancellation once.
func (at *attempt) abort() {
	at.once.Do(func() { close(at.cancel) })
}

func (at *attempt) closeEp() {
	if ep, ok := at.ep.Load().(transport.Endpoint); ok {
		_ = ep.Close() // force-unblock a wedged exchange; the run error is reported by the engine goroutine
	}
}

// RunWorker runs one kkrank worker process: register with the
// coordinator, then serve assign/start/abort/stop until the job ends or
// the control connection dies. It returns nil on a clean stop.
func RunWorker(opts WorkerOptions) error {
	if opts.CoordAddr == "" {
		return fmt.Errorf("coord: worker needs a coordinator address")
	}
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if opts.AbortGrace <= 0 {
		opts.AbortGrace = DefaultAbortGrace
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	ln, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return fmt.Errorf("coord: data-plane listen %s: %w", opts.ListenAddr, err)
	}
	defer func() { _ = ln.Close() }() // process is exiting

	conn, err := net.DialTimeout("tcp", opts.CoordAddr, dialCoordTimeout)
	if err != nil {
		return fmt.Errorf("coord: dial coordinator %s: %w", opts.CoordAddr, err)
	}
	w := &worker{opts: opts, ln: ln, cc: newControlConn(conn), graphCache: map[graphKey]*graph.Graph{}}
	defer func() { _ = w.cc.close() }() // process is exiting

	if err := w.cc.write(Msg{Type: MsgHello, V: ProtoVersion, DataAddr: ln.Addr().String()}); err != nil {
		return err
	}
	logf("registered with %s, data plane on %s", opts.CoordAddr, ln.Addr())

	quit := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(quit) // joins the reader and heartbeat goroutines below

	// Control reader: one goroutine turning the connection into a channel.
	msgs := make(chan Msg)
	readErrs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := w.cc.read()
			if err != nil {
				select {
				case readErrs <- err:
				case <-quit:
				}
				return
			}
			select {
			case msgs <- m:
			case <-quit:
				return
			}
		}
	}()

	// Heartbeats: whenever an attempt is active (from assign receipt
	// through done/failed, including graph load), report its last barrier.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(opts.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if at := w.cur.Load(); at != nil {
					_ = w.cc.write(Msg{ // best-effort: a dead control conn surfaces in the reader
						Type:      MsgHeartbeat,
						Attempt:   at.a.Attempt,
						Superstep: int(at.superstep.Load()),
						Walkers:   at.walkers.Load(),
					})
				}
			}
		}
	}()

	done := make(chan outcome, 1)
	for {
		select {
		case err := <-readErrs:
			return fmt.Errorf("coord: coordinator connection lost: %w", err)

		case out := <-done:
			at := w.cur.Load()
			if at == nil || out.attempt != at.a.Attempt {
				continue // outcome of a force-closed stale attempt
			}
			if at.grace != nil {
				at.grace.Stop()
			}
			w.cur.Store(nil)
			if out.err != nil {
				logf("attempt %d failed: %v", out.attempt, out.err)
				_ = w.cc.write(Msg{Type: MsgFailed, Attempt: out.attempt, Err: out.err.Error()})
				continue
			}
			logf("attempt %d done after %d supersteps", out.attempt, out.res.Iterations)
			_ = w.cc.write(Msg{Type: MsgDone, Attempt: out.attempt, Result: &RankResult{
				Iterations:   out.res.Iterations,
				Steps:        out.res.Counters.Steps,
				Terminations: out.res.Counters.Terminations,
				Messages:     out.res.Counters.Messages,
				Bytes:        out.res.Counters.BytesSent,
			}})

		case m := <-msgs:
			switch m.Type {
			case MsgReject:
				return fmt.Errorf("coord: registration rejected: %s (coordinator speaks protocol v%d, this worker v%d)", m.Err, m.V, ProtoVersion)

			case MsgAssign:
				if m.Assign == nil {
					return fmt.Errorf("coord: assign without assignment")
				}
				if w.cur.Load() != nil {
					return fmt.Errorf("coord: assigned attempt %d while attempt %d still active", m.Assign.Attempt, w.cur.Load().a.Attempt)
				}
				at := &attempt{a: m.Assign, cancel: make(chan struct{})}
				at.superstep.Store(0)
				w.cur.Store(at) // heartbeats cover the (possibly long) graph load
				resumeIter, err := w.prepare(at, logf)
				if err != nil {
					logf("attempt %d prepare failed: %v", at.a.Attempt, err)
					w.cur.Store(nil)
					_ = w.cc.write(Msg{Type: MsgFailed, Attempt: at.a.Attempt, Err: err.Error()})
					continue
				}
				at.superstep.Store(int64(resumeIter))
				logf("rank %d/%d attempt %d prepared (resume superstep %d)", at.a.Rank, at.a.Ranks, at.a.Attempt, resumeIter)
				if err := w.cc.write(Msg{Type: MsgReady, Attempt: at.a.Attempt, ResumeIter: resumeIter}); err != nil {
					return err
				}

			case MsgStart:
				at := w.cur.Load()
				if at == nil || m.Attempt != at.a.Attempt {
					continue // barrier release for an attempt we already abandoned
				}
				if at.running {
					continue
				}
				at.running = true
				logf("attempt %d started", at.a.Attempt)
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := w.runAttempt(at)
					select {
					case done <- outcome{attempt: at.a.Attempt, res: res, err: err}:
					case <-quit:
					}
				}()

			case MsgAbort:
				at := w.cur.Load()
				if at == nil || m.Attempt != at.a.Attempt {
					// Nothing active (we already failed, or the attempt is
					// long gone): ack so the coordinator's abort barrier
					// can complete.
					_ = w.cc.write(Msg{Type: MsgFailed, Attempt: m.Attempt, Err: "abort ack (idle)"})
					continue
				}
				if !at.running {
					// Prepared but not started: drop the assignment.
					w.cur.Store(nil)
					_ = w.cc.write(Msg{Type: MsgFailed, Attempt: at.a.Attempt, Err: "aborted before start"})
					continue
				}
				logf("attempt %d aborting (cancel at next barrier, grace %v)", at.a.Attempt, opts.AbortGrace)
				at.abort()
				// If cancellation cannot reach a barrier (the dead peer is
				// wedging an exchange and no NetTimeout is set), pull the
				// endpoint out from under the engine.
				at.grace = time.AfterFunc(opts.AbortGrace, at.closeEp)

			case MsgStop:
				logf("stopped by coordinator")
				if at := w.cur.Load(); at != nil && at.running {
					at.abort()
					at.closeEp()
				}
				return nil

			default:
				return fmt.Errorf("coord: unexpected control message %q", m.Type)
			}
		}
	}
}

// prepare loads the assignment's graph slice and prepares the rank's
// run, checkpoint resume included. It returns the superstep the rank will
// resume from (0 = fresh).
func (w *worker) prepare(at *attempt, logf func(string, ...interface{})) (int, error) {
	a := at.a
	spec := &a.Spec
	if len(a.PartitionStarts) != a.Ranks+1 {
		return 0, fmt.Errorf("coord: assignment has %d partition boundaries for %d ranks", len(a.PartitionStarts), a.Ranks)
	}
	starts := make([]graph.VertexID, len(a.PartitionStarts))
	for i, v := range a.PartitionStarts {
		starts[i] = graph.VertexID(v)
	}
	part, err := cluster.NewPartition(starts)
	if err != nil {
		return 0, err
	}
	lo, hi := part.Range(a.Rank)

	g, err := w.loadGraph(spec, lo, hi, logf)
	if err != nil {
		return 0, err
	}

	// Every rank runs the coordinator's partition verbatim; for binary
	// graphs the slice-loaded graph keeps the global vertex ID space and
	// these boundaries are what anchor it.
	wiring := job.Wiring{
		PartitionStarts: starts,
		CheckpointDir:   spec.CheckpointDir,
		Resume:          a.Resume,
		Observer:        at,
		Cancel:          at.cancel,
		RecordPaths:     spec.DumpDir != "",
		NetTimeout:      time.Duration(spec.NetTimeoutMS) * time.Millisecond,
	}
	run, err := job.PrepareRank(spec.Spec, g, a.Rank, wiring)
	if errors.Is(err, job.ErrNoCheckpoint) {
		// Died before the first checkpoint committed: fresh start.
		wiring.Resume = false
		run, err = job.PrepareRank(spec.Spec, g, a.Rank, wiring)
	}
	if err != nil {
		return 0, err
	}
	at.run = run
	return run.ResumeIter, nil
}

// loadGraph reads the spec's graph (this rank's slice for binary graphs),
// reusing a previous attempt's load when the key matches.
func (w *worker) loadGraph(spec *JobSpec, lo, hi graph.VertexID, logf func(string, ...interface{})) (*graph.Graph, error) {
	key := graphKey{path: spec.GraphPath, binary: spec.GraphBinary, undirected: spec.Undirected}
	if spec.GraphBinary {
		key.lo, key.hi = lo, hi
	}
	if g, ok := w.graphCache[key]; ok {
		return g, nil
	}
	var g *graph.Graph
	var err error
	if spec.GraphBinary {
		g, err = loadSlice(spec.GraphPath, lo, hi)
		if err == nil {
			logf("loaded vertex slice [%d,%d): %d local edges", lo, hi, g.NumEdges())
		}
	} else {
		g, err = graph.Open(spec.GraphPath, false, spec.Undirected)
	}
	if err != nil {
		return nil, fmt.Errorf("coord: load graph: %w", err)
	}
	w.graphCache[key] = g
	return g, nil
}

// loadSlice reads vertices [lo,hi) of a binary graph file.
func loadSlice(path string, lo, hi graph.VertexID) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return graph.ReadBinarySlice(f, lo, hi)
}

// runAttempt brings up the data-plane mesh and runs the engine for one
// attempt, then writes this rank's dump. Runs on its own goroutine.
func (w *worker) runAttempt(at *attempt) (*core.Result, error) {
	a := at.a
	nt := time.Duration(a.Spec.NetTimeoutMS) * time.Millisecond
	ep, err := transport.DialTCPGroupOn(w.ln, a.Rank, a.Peers, transport.TCPOptions{
		ReadTimeout:  nt,
		WriteTimeout: nt,
		Nonce:        a.Nonce,
	})
	if err != nil {
		return nil, fmt.Errorf("coord: join mesh: %w", err)
	}
	at.ep.Store(ep)
	defer func() { _ = ep.Close() }() // abort grace may have closed it already
	res, _, err := at.run.RunNode(ep)
	if err != nil {
		return nil, err
	}
	if a.Spec.DumpDir != "" {
		if err := writeRankDump(a.Spec.DumpDir, a.Rank, res.Paths); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeRankDump writes this rank's walk sequences as "<walkerID> v1 v2 ..."
// lines in ascending walker ID, atomically (tmp + rename) so a failover
// rewrite never leaves a torn file. Only locally terminated walkers have
// paths; merging all ranks' files by walker ID reproduces the
// single-process dump.
func writeRankDump(dir string, rank int, paths [][]graph.VertexID) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("coord: dump dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("walks-rank%05d.txt", rank))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("coord: dump: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for id, p := range paths {
		if p == nil {
			continue // terminated on another rank
		}
		_, _ = fmt.Fprintf(bw, "%d", id) // buffered; Flush below reports write errors
		for _, v := range p {
			_, _ = fmt.Fprintf(bw, " %d", v)
		}
		_, _ = fmt.Fprintln(bw)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("coord: dump: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("coord: dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("coord: dump: %w", err)
	}
	return nil
}
