package coord

import (
	"fmt"
	"net"
	"sync"
	"time"

	"knightking/internal/rng"
)

// Coordinator defaults.
const (
	// DefaultHeartbeatTimeout is how stale a seated worker's heartbeat may
	// grow during prepare/run before the coordinator declares the rank dead.
	DefaultHeartbeatTimeout = 5 * time.Second
	// DefaultAbortAckTimeout bounds the abort barrier: workers that have
	// not acknowledged an abort within it get their connections cut. It
	// must exceed the workers' abort grace (DefaultAbortGrace) so aligned
	// cancellation gets its chance first.
	DefaultAbortAckTimeout = 8 * time.Second
	// DefaultMaxAttempts caps mesh epochs, turning a deterministic
	// per-attempt failure (bad graph path, poisoned checkpoint) into a job
	// error instead of an assign/abort livelock.
	DefaultMaxAttempts = 10

	// helloTimeout bounds how long a fresh connection may sit silent
	// before its registration read is abandoned.
	helloTimeout = 10 * time.Second
	// tickEvery is the liveness sweep period.
	tickEvery = 200 * time.Millisecond
)

// Seat phases: one worker's position in the current attempt.
const (
	phIdle      = iota // seated, no live assignment
	phPreparing        // assign sent, loading graph + checkpoint
	phReady            // prepared, waiting for the start barrier
	phRunning          // start released, engine running
	phDone             // reported done for this attempt
)

var phaseNames = [...]string{"idle", "preparing", "ready", "running", "done"}

// Coordinator states.
const (
	stGather  = iota // waiting for enough registered workers
	stPrepare        // assignments out, collecting readies
	stRun            // attempt running
	stAbort          // abort out, collecting acknowledgements
	stDone           // job finished (summary or error)
)

var stateNames = [...]string{"gathering", "preparing", "running", "aborting", "done"}

// Options configures a Coordinator.
type Options struct {
	// Spec is the job to run (required).
	Spec JobSpec
	// Ranks is the cluster size (required, >= 1).
	Ranks int
	// ControlAddr is the control-plane listen address; default
	// "127.0.0.1:0" (read the bound address back with Addr).
	ControlAddr string
	// AdminAddr, when set, serves /metrics, /statusz, and /trace.
	AdminAddr string
	// Resume makes the *first* attempt restore from Spec.CheckpointDir;
	// failover attempts always resume when checkpointing is on.
	Resume bool
	// HeartbeatTimeout / AbortAckTimeout / MaxAttempts override the
	// defaults above; GatherTimeout fails the job when the cluster cannot
	// be assembled in time (0 = wait forever).
	HeartbeatTimeout time.Duration
	AbortAckTimeout  time.Duration
	GatherTimeout    time.Duration
	MaxAttempts      int
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// Summary aggregates the finished job across ranks.
type Summary struct {
	Attempts     int   `json:"attempts"`
	Failovers    int64 `json:"failovers"`
	Iterations   int   `json:"iterations"`
	Steps        int64 `json:"steps"`
	Terminations int64 `json:"terminations"`
	Messages     int64 `json:"messages"`
	Bytes        int64 `json:"bytes"`
}

// wconn is one worker's control connection.
type wconn struct {
	id       int
	cc       *controlConn
	conn     net.Conn
	dataAddr string
	rank     int // seat index, -1 while spare
}

// seat is one rank's slot in the cluster.
type seat struct {
	wc        *wconn
	phase     int
	readyIter int
	superstep int
	walkers   int64
	lastBeat  time.Duration // trace-relative; see ctlTrace.clock
	result    *RankResult
}

// ev is one event consumed by the run loop.
type ev struct {
	kind int // evConn, evMsg, evGone
	wc   *wconn
	msg  Msg
}

const (
	evConn = iota
	evMsg
	evGone
)

// Coordinator owns one job: membership, partition handout, the start
// barrier, liveness, and failover. All state transitions happen on the
// Run goroutine; the mutex only makes the state readable by the admin
// server's handlers.
type Coordinator struct {
	opts     Options
	logf     func(format string, args ...interface{})
	ln       net.Listener
	trace    *ctlTrace
	nonceRng *rng.Rand

	partStarts  []uint32
	numVertices int

	events chan ev
	quit   chan struct{}
	wg     sync.WaitGroup

	mu            sync.Mutex
	state         int
	attempt       int
	failovers     int64
	seats         []seat
	spares        []*wconn
	conns         []net.Conn // every accepted conn, for shutdown
	connSeq       int
	prepareStart  time.Duration
	attemptStart  time.Duration
	gatherStart   time.Duration
	failoverStart time.Duration // nonzero while a failover is in flight
	abortDeadline time.Duration
	finished      bool
	summary       *Summary
	err           error
	// lastFailover is the newest failover's reason, which a give-up names.
	lastFailover string
}

// New validates the job, computes the partition, and binds the control
// listener. Run does the rest.
func New(opts Options) (*Coordinator, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("coord: %d ranks", opts.Ranks)
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if opts.ControlAddr == "" {
		opts.ControlAddr = "127.0.0.1:0"
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if opts.AbortAckTimeout <= 0 {
		opts.AbortAckTimeout = DefaultAbortAckTimeout
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	starts, numVertices, err := partitionSpec(&opts.Spec, opts.Ranks)
	if err != nil {
		return nil, err
	}
	wire := make([]uint32, len(starts))
	for i, v := range starts {
		wire[i] = uint32(v)
	}

	ln, err := net.Listen("tcp", opts.ControlAddr)
	if err != nil {
		return nil, fmt.Errorf("coord: control listen %s: %w", opts.ControlAddr, err)
	}
	return &Coordinator{
		opts:        opts,
		logf:        logf,
		ln:          ln,
		trace:       newCtlTrace(),
		nonceRng:    rng.New(opts.Spec.Seed ^ 0x6b6b636f6f7264), // "kkcoord"
		partStarts:  wire,
		numVertices: numVertices,
		events:      make(chan ev, 64),
		quit:        make(chan struct{}),
		seats:       make([]seat, opts.Ranks),
	}, nil
}

// Addr returns the bound control address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Run drives the job to completion (or failure) and returns the
// aggregated summary. It blocks; kkcoord calls it from main.
func (c *Coordinator) Run() (*Summary, error) {
	var admin *adminServer
	if c.opts.AdminAddr != "" {
		var err error
		admin, err = newAdminServer(c, c.opts.AdminAddr)
		if err != nil {
			return nil, err
		}
		c.logf("admin server on http://%s (/metrics /statusz /trace)", admin.addr())
		defer admin.close()
	}
	c.logf("control plane on %s: waiting for %d workers", c.Addr(), c.opts.Ranks)

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.acceptLoop()
	}()

	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()

	for {
		select {
		case e := <-c.events:
			c.mu.Lock()
			c.handle(e)
			c.mu.Unlock()
		case <-ticker.C:
			c.mu.Lock()
			c.onTick()
			c.mu.Unlock()
		}
		c.mu.Lock()
		fin, summary, err := c.finished, c.summary, c.err
		if fin {
			// Unblock every serveConn goroutine: further events are moot.
			for _, conn := range c.conns {
				_ = conn.Close() // idempotent; stop was already sent where it mattered
			}
		}
		c.mu.Unlock()
		if fin {
			close(c.quit)
			_ = c.ln.Close()
			c.wg.Wait()
			return summary, err
		}
	}
}

// acceptLoop admits control connections until the listener closes.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns = append(c.conns, conn)
		c.connSeq++
		id := c.connSeq
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serveConn(id, conn)
		}()
	}
}

// serveConn performs the registration handshake and then pumps the
// connection's messages into the run loop.
func (c *Coordinator) serveConn(id int, conn net.Conn) {
	cc := newControlConn(conn)
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout)) //kk:nondet-ok control-plane deadline; never feeds walk state
	hello, err := cc.read()
	if err != nil || hello.Type != MsgHello {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if hello.V != ProtoVersion {
		// The one negotiation rule: exact match, reject carries our
		// version so the worker can report both sides.
		_ = cc.write(Msg{Type: MsgReject, V: ProtoVersion,
			Err: fmt.Sprintf("protocol version %d not supported", hello.V)})
		_ = conn.Close()
		return
	}
	wc := &wconn{id: id, cc: cc, conn: conn, dataAddr: hello.DataAddr, rank: -1}
	select {
	case c.events <- ev{kind: evConn, wc: wc}:
	case <-c.quit:
		return
	}
	for {
		m, err := cc.read()
		if err != nil {
			select {
			case c.events <- ev{kind: evGone, wc: wc}:
			case <-c.quit:
			}
			return
		}
		select {
		case c.events <- ev{kind: evMsg, wc: wc, msg: m}:
		case <-c.quit:
			return
		}
	}
}

// handle consumes one event. Called with c.mu held, on the Run goroutine.
func (c *Coordinator) handle(e ev) {
	switch e.kind {
	case evConn:
		c.trace.point(-1, "worker %d registered (%s)", e.wc.id, e.wc.dataAddr)
		c.logf("worker %d registered, data plane %s", e.wc.id, e.wc.dataAddr)
		c.spares = append(c.spares, e.wc)
		c.reconcile()

	case evGone:
		if e.wc.rank >= 0 && c.seats[e.wc.rank].wc == e.wc {
			rank := e.wc.rank
			c.vacate(rank)
			c.logf("rank %d connection lost", rank)
			c.trace.point(rank, "down (connection lost)")
			switch c.state {
			case stPrepare, stRun:
				c.failover(fmt.Sprintf("rank %d connection lost", rank))
			case stAbort:
				c.checkAbortDone()
			}
			return
		}
		for i, sp := range c.spares {
			if sp == e.wc {
				c.spares = append(c.spares[:i], c.spares[i+1:]...)
				break
			}
		}

	case evMsg:
		c.handleMsg(e.wc, e.msg)
	}
}

func (c *Coordinator) handleMsg(wc *wconn, m Msg) {
	if wc.rank < 0 || c.seats[wc.rank].wc != wc {
		return // spare chatter or a vacated seat's stale message
	}
	s := &c.seats[wc.rank]
	switch m.Type {
	case MsgHeartbeat:
		s.lastBeat = c.trace.clock()
		if m.Attempt == c.attempt {
			s.superstep = m.Superstep
			s.walkers = m.Walkers
		}

	case MsgReady:
		if c.state != stPrepare || m.Attempt != c.attempt || s.phase != phPreparing {
			return
		}
		s.phase = phReady
		s.readyIter = m.ResumeIter
		s.lastBeat = c.trace.clock()
		c.maybeStart()

	case MsgDone:
		if m.Attempt != c.attempt || s.phase != phRunning {
			return
		}
		s.result = m.Result
		s.lastBeat = c.trace.clock()
		switch c.state {
		case stRun:
			s.phase = phDone
			c.logf("rank %d done (%d supersteps)", wc.rank, m.Result.Iterations)
			c.maybeFinish()
		case stAbort:
			// Finished as the epoch died: it will be re-run next attempt
			// (a deterministic rerun rewrites the same dump), so the seat
			// is simply idle again.
			s.phase = phIdle
			c.checkAbortDone()
		}

	case MsgFailed:
		if m.Attempt != c.attempt {
			return
		}
		switch c.state {
		case stAbort:
			if s.phase != phIdle {
				s.phase = phIdle
				c.checkAbortDone()
			}
		case stPrepare, stRun:
			if s.phase == phIdle {
				return
			}
			s.phase = phIdle
			c.logf("rank %d failed: %s", wc.rank, m.Err)
			c.trace.point(wc.rank, "failed: %s", m.Err)
			c.failover(fmt.Sprintf("rank %d failed: %s", wc.rank, m.Err))
		}
	}
}

// reconcile fills vacant seats from the spare pool and, once the cluster
// is whole while gathering, launches the next attempt.
func (c *Coordinator) reconcile() {
	if c.state != stGather {
		return
	}
	for rank := range c.seats {
		if c.seats[rank].wc != nil {
			continue
		}
		if len(c.spares) == 0 {
			return
		}
		wc := c.spares[0]
		c.spares = c.spares[1:]
		wc.rank = rank
		c.seats[rank] = seat{wc: wc, phase: phIdle, lastBeat: c.trace.clock()}
		c.logf("worker %d seated as rank %d", wc.id, rank)
	}
	c.beginAttempt()
}

// vacate empties a seat (its connection is gone or being cut).
func (c *Coordinator) vacate(rank int) {
	if wc := c.seats[rank].wc; wc != nil {
		wc.rank = -1
		_ = wc.conn.Close()
	}
	c.seats[rank] = seat{}
}

// beginAttempt hands every seat its rank for a fresh mesh epoch.
func (c *Coordinator) beginAttempt() {
	if c.attempt >= c.opts.MaxAttempts {
		c.failJob(fmt.Errorf("coord: giving up after %d attempts; last failover: %s", c.attempt, c.lastFailover))
		return
	}
	c.attempt++
	resume := c.opts.Resume || c.attempt > 1
	nonce := c.nonceRng.Uint64() | 1 // the mesh treats nonce 0 as "no nonce"
	peers := make([]string, len(c.seats))
	for i := range c.seats {
		peers[i] = c.seats[i].wc.dataAddr
	}
	c.prepareStart = c.trace.clock()
	c.state = stPrepare
	c.logf("attempt %d: assigning %d ranks (resume=%v)", c.attempt, len(c.seats), resume)
	c.trace.point(-1, "attempt %d assign (resume=%v)", c.attempt, resume)
	for rank := range c.seats {
		s := &c.seats[rank]
		s.phase = phPreparing
		s.readyIter = 0
		s.superstep = 0
		s.result = nil
		s.lastBeat = c.trace.clock()
		_ = s.wc.cc.write(Msg{Type: MsgAssign, Assign: &Assignment{ // a dead conn surfaces as evGone
			Rank:            rank,
			Ranks:           len(c.seats),
			Attempt:         c.attempt,
			Nonce:           nonce,
			Peers:           peers,
			PartitionStarts: c.partStarts,
			Resume:          resume,
			Spec:            c.opts.Spec,
		}})
	}
}

// maybeStart releases the start barrier once every seat is ready — after
// verifying the ranks agree on the checkpoint superstep they restored.
// Disagreement means the shared checkpoint directory is giving different
// ranks different newest-complete answers (torn storage); rerunning would
// silently diverge, so it fails the job instead.
func (c *Coordinator) maybeStart() {
	for i := range c.seats {
		if c.seats[i].phase != phReady {
			return
		}
	}
	base := c.seats[0].readyIter
	for i := range c.seats {
		if c.seats[i].readyIter != base {
			c.failJob(fmt.Errorf("coord: checkpoint disagreement: rank 0 resumes at superstep %d but rank %d at %d",
				base, i, c.seats[i].readyIter))
			return
		}
	}
	c.trace.span(-1, c.prepareStart, "attempt %d prepare", c.attempt)
	if c.failoverStart != 0 {
		c.trace.span(-1, c.failoverStart, "failover %d: detect→resume", c.failovers)
		c.failoverStart = 0
	}
	c.attemptStart = c.trace.clock()
	c.state = stRun
	c.logf("attempt %d: all ranks ready at superstep %d, releasing start barrier", c.attempt, base)
	for i := range c.seats {
		c.seats[i].phase = phRunning
		c.seats[i].lastBeat = c.trace.clock()
		_ = c.seats[i].wc.cc.write(Msg{Type: MsgStart, Attempt: c.attempt})
	}
}

// maybeFinish aggregates and stops the cluster once every rank is done.
func (c *Coordinator) maybeFinish() {
	sum := &Summary{Attempts: c.attempt, Failovers: c.failovers}
	for i := range c.seats {
		if c.seats[i].phase != phDone || c.seats[i].result == nil {
			return
		}
		r := c.seats[i].result
		if r.Iterations > sum.Iterations {
			sum.Iterations = r.Iterations
		}
		sum.Steps += r.Steps
		sum.Terminations += r.Terminations
		sum.Messages += r.Messages
		sum.Bytes += r.Bytes
	}
	c.trace.span(-1, c.attemptStart, "attempt %d run", c.attempt)
	c.trace.point(-1, "job done")
	c.logf("job done: %d supersteps, %d steps, %d terminations (%d attempt(s), %d failover(s))",
		sum.Iterations, sum.Steps, sum.Terminations, sum.Attempts, sum.Failovers)
	c.broadcastStop()
	c.summary = sum
	c.state = stDone
	c.finished = true
}

// failover aborts the current attempt; the abort barrier completes in
// checkAbortDone and the next attempt launches from reconcile.
func (c *Coordinator) failover(reason string) {
	if c.state == stAbort || c.state == stDone {
		return
	}
	c.failovers++
	c.lastFailover = reason
	if c.failoverStart == 0 {
		c.failoverStart = c.trace.clock()
	}
	c.logf("failover %d: %s; aborting attempt %d", c.failovers, reason, c.attempt)
	c.trace.point(-1, "failover %d: %s", c.failovers, reason)
	c.state = stAbort
	c.abortDeadline = c.trace.clock() + c.opts.AbortAckTimeout
	for i := range c.seats {
		s := &c.seats[i]
		if s.wc == nil {
			continue
		}
		switch s.phase {
		case phPreparing, phReady, phRunning:
			_ = s.wc.cc.write(Msg{Type: MsgAbort, Attempt: c.attempt})
		case phDone:
			s.phase = phIdle // already finished; nothing to abort
		}
	}
	c.checkAbortDone()
}

// checkAbortDone closes the abort barrier once no seat is still inside
// the attempt, then regathers.
func (c *Coordinator) checkAbortDone() {
	if c.state != stAbort {
		return
	}
	for i := range c.seats {
		if c.seats[i].wc != nil && c.seats[i].phase != phIdle {
			return
		}
	}
	c.state = stGather
	c.gatherStart = c.trace.clock()
	c.logf("attempt %d fully aborted; regathering", c.attempt)
	c.reconcile()
}

// onTick sweeps liveness and deadline state.
func (c *Coordinator) onTick() {
	now := c.trace.clock()
	switch c.state {
	case stGather:
		if c.opts.GatherTimeout > 0 && now-c.gatherStart > c.opts.GatherTimeout {
			seated := 0
			for i := range c.seats {
				if c.seats[i].wc != nil {
					seated++
				}
			}
			if seated < len(c.seats) {
				c.failJob(fmt.Errorf("coord: only %d of %d workers registered within %v",
					seated, len(c.seats), c.opts.GatherTimeout))
			}
		}
	case stPrepare, stRun:
		for rank := range c.seats {
			s := &c.seats[rank]
			if s.wc == nil || now-s.lastBeat <= c.opts.HeartbeatTimeout {
				continue
			}
			c.logf("rank %d heartbeat stale (%v); declaring it dead", rank, now-s.lastBeat)
			c.trace.point(rank, "down (heartbeat timeout)")
			c.vacate(rank)
			c.failover(fmt.Sprintf("rank %d heartbeat timeout", rank))
			return // failover re-examined every seat; one sweep is enough
		}
	case stAbort:
		if now > c.abortDeadline {
			for rank := range c.seats {
				s := &c.seats[rank]
				if s.wc != nil && s.phase != phIdle {
					c.logf("rank %d ignored the abort for %v; cutting its connection", rank, c.opts.AbortAckTimeout)
					c.vacate(rank)
				}
			}
			c.checkAbortDone()
		}
	}
}

// failJob ends the job with an error.
func (c *Coordinator) failJob(err error) {
	c.logf("job failed: %v", err)
	c.broadcastStop()
	c.err = err
	c.state = stDone
	c.finished = true
}

// broadcastStop tells every connected worker — seated or spare — to exit.
func (c *Coordinator) broadcastStop() {
	for i := range c.seats {
		if wc := c.seats[i].wc; wc != nil {
			_ = wc.cc.write(Msg{Type: MsgStop}) // best-effort farewell
		}
	}
	for _, wc := range c.spares {
		_ = wc.cc.write(Msg{Type: MsgStop}) // best-effort farewell
	}
}
