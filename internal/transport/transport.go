// Package transport provides the node-to-node communication substrate for
// the simulated cluster. The paper's implementation uses OpenMPI all-to-all
// message passing between physical nodes; here the same collective-exchange
// contract is provided by two interchangeable implementations:
//
//   - the in-process transport (NewInProcGroup), where logical nodes are
//     goroutine groups inside one process exchanging batched messages
//     through shared memory, and
//
//   - a real TCP transport (DialTCPGroup) with length-prefixed frames over
//     stdlib net connections, demonstrating that the engine runs unchanged
//     over an actual wire.
//
// The engine's bulk-synchronous structure maps onto a single primitive:
// Exchange, a collective that delivers every message sent since the last
// Exchange and acts as a barrier across all ranks, exactly like an MPI
// all-to-all.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel error a fault-injecting wrapper (the chaos
// package's programmed disconnect) returns when its crash fires. Callers
// match it with errors.Is.
var ErrInjected = errors.New("transport: injected fault")

// ErrTimeout is the sentinel error wrapped by every deadline failure in
// this package: a TCP read/write deadline expiring mid-frame, or an
// exchange-level guard (WithExchangeTimeout) firing because the collective
// did not complete in time. Callers match it with errors.Is to distinguish
// a dead-or-wedged peer from data corruption.
var ErrTimeout = errors.New("transport: deadline exceeded")

// Message is one routed unit. Kind discriminates payload encodings at the
// layer above; the transport treats Payload as opaque bytes.
//
// Local, when non-nil, is an object delivered zero-copy within a shared
// address space (see LocalSender); Payload is nil for such messages.
// Ownership of the object transfers to the receiving rank at delivery.
type Message struct {
	From    int
	Kind    uint8
	Payload []byte
	Local   any
}

// LocalSender is optionally implemented by endpoints whose whole group
// shares one address space (the in-process group): SendLocal enqueues an
// arbitrary object for zero-copy delivery at the next Exchange, skipping
// serialization entirely. Ownership of obj transfers to the receiving
// rank. Wrapping endpoints (exchange-timeout, fault injection)
// deliberately do not implement it, so a caller's type assertion fails
// whenever a wrapper intervenes and the caller falls back to byte
// payloads — which keeps wrapped runs exercising the wire codec.
// Observation is not a wrapper: the engine reports exchanges to its
// observer and tracer itself, so attaching them keeps this path.
type LocalSender interface {
	// SendLocal buffers obj for delivery to rank `to` at the next
	// Exchange. Safe for concurrent use. The object must not be mutated
	// after the call.
	SendLocal(to int, kind uint8, obj any)
}

// Endpoint is one rank's handle on the group.
//
// Payload ownership contract: Send transfers ownership of the payload
// slice to the transport — the caller must not mutate it afterwards.
// Symmetrically, the payloads of messages returned by Exchange are owned
// by the caller only until the next Exchange (or Close) call on the same
// endpoint; implementations may recycle the backing memory after that.
// Callers needing a payload across rounds must copy it.
type Endpoint interface {
	// Rank returns this endpoint's index in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Send buffers a message for delivery to rank `to` at the next
	// Exchange. Safe for concurrent use. The payload slice must not be
	// mutated after the call.
	Send(to int, kind uint8, payload []byte)
	// Exchange is a collective barrier: it blocks until every rank has
	// entered Exchange, then returns all messages addressed to this rank
	// that were sent since the previous Exchange (in sender-rank order;
	// messages from one sender preserve send order). Returned payloads
	// remain valid only until the next Exchange or Close call.
	Exchange() ([]Message, error)
	// Stats returns cumulative messages and payload bytes sent by this
	// endpoint.
	Stats() (messages, bytes int64)
	// Close releases resources. After Close, Exchange returns an error.
	Close() error
}

// guardEndpoint bounds the wall-clock time of each Exchange call on any
// underlying endpoint, converting an indefinite barrier hang (a peer died
// without closing its connections, a scheduler wedge, a partitioned
// network) into a clean error. On timeout it closes the wrapped endpoint,
// which tears the group down and unblocks every peer stuck in the same
// barrier — making the checkpoint/recovery path reachable instead of
// waiting forever.
type guardEndpoint struct {
	Endpoint
	timeout time.Duration
}

// WithExchangeTimeout wraps ep so that any Exchange call taking longer
// than d fails with an error wrapping ErrTimeout (and closes ep, tearing
// down the group). A non-positive d returns ep unchanged.
// Transport-agnostic: works over the in-process group, TCP, and test
// wrappers alike.
func WithExchangeTimeout(ep Endpoint, d time.Duration) Endpoint {
	if d <= 0 {
		return ep
	}
	return &guardEndpoint{Endpoint: ep, timeout: d}
}

// Exchange delegates to the wrapped endpoint, bounding its duration.
func (g *guardEndpoint) Exchange() ([]Message, error) {
	type result struct {
		msgs []Message
		err  error
	}
	done := make(chan result, 1)
	go func() {
		msgs, err := g.Endpoint.Exchange()
		done <- result{msgs, err}
	}()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.msgs, r.err
	case <-timer.C:
		// Closing unblocks the inner Exchange (and the rest of the group);
		// wait for it so no goroutine outlives the call.
		g.Endpoint.Close()
		<-done
		return nil, fmt.Errorf("transport: exchange on rank %d exceeded %v: %w",
			g.Rank(), g.timeout, ErrTimeout)
	}
}

// inprocGroup implements the collective over shared memory.
type inprocGroup struct {
	n    int
	mu   sync.Mutex
	cond *sync.Cond
	// outbox[from][to] accumulates messages for the current round.
	outbox [][][]Message
	// inbox[to] holds the delivered messages of the last completed round.
	inbox   [][]Message
	round   uint64
	arrived int
	closed  bool
}

type inprocEndpoint struct {
	g        *inprocGroup
	rank     int
	sentMsgs atomic.Int64
	sentByte atomic.Int64
}

// NewInProcGroup creates n endpoints sharing an in-process exchange.
func NewInProcGroup(n int) []Endpoint {
	if n <= 0 {
		panic(fmt.Sprintf("transport: NewInProcGroup(%d)", n))
	}
	g := &inprocGroup{
		n:      n,
		outbox: make([][][]Message, n),
		inbox:  make([][]Message, n),
	}
	g.cond = sync.NewCond(&g.mu)
	for i := range g.outbox {
		g.outbox[i] = make([][]Message, n)
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = &inprocEndpoint{g: g, rank: i}
	}
	return eps
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.g.n }

func (e *inprocEndpoint) Send(to int, kind uint8, payload []byte) {
	e.enqueue(to, Message{From: e.rank, Kind: kind, Payload: payload})
	e.sentByte.Add(int64(len(payload)))
}

// SendLocal implements LocalSender: ranks of an in-process group share the
// process address space, so objects are delivered by reference. No bytes
// cross any wire, so only the message count is accounted.
func (e *inprocEndpoint) SendLocal(to int, kind uint8, obj any) {
	e.enqueue(to, Message{From: e.rank, Kind: kind, Local: obj})
}

func (e *inprocEndpoint) enqueue(to int, m Message) {
	if to < 0 || to >= e.g.n {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, e.g.n))
	}
	g := e.g
	g.mu.Lock()
	g.outbox[e.rank][to] = append(g.outbox[e.rank][to], m)
	g.mu.Unlock()
	e.sentMsgs.Add(1)
}

func (e *inprocEndpoint) Exchange() ([]Message, error) {
	g := e.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("transport: exchange on closed group")
	}
	myRound := g.round
	g.arrived++
	if g.arrived == g.n {
		// Last to arrive performs the all-to-all delivery. Every rank is
		// inside Exchange at this point, so by the ownership contract the
		// previous round's inbox slices are reclaimable: delivery rebuilds
		// each rank's inbox on its retained backing, and the drained outbox
		// queues likewise keep their capacity (entries cleared so stale
		// payload references don't pin memory).
		for to := 0; to < g.n; to++ {
			msgs := g.inbox[to][:0]
			for from := 0; from < g.n; from++ {
				q := g.outbox[from][to]
				msgs = append(msgs, q...)
				clear(q)
				g.outbox[from][to] = q[:0]
			}
			g.inbox[to] = msgs
		}
		g.arrived = 0
		g.round++
		g.cond.Broadcast()
	} else {
		for g.round == myRound && !g.closed {
			g.cond.Wait()
		}
		// Error only if this round never completed: a round that finished
		// before the group closed (e.g. a peer exiting uniformly right after
		// the barrier, as cooperative cancellation does) must still deliver,
		// or peers would see a spurious transport error instead of their own
		// copy of the collective decision.
		if g.round == myRound {
			return nil, fmt.Errorf("transport: group closed during exchange")
		}
	}
	// The slice stays in g.inbox for the next delivery to rebuild on; it is
	// the caller's to read only until its next Exchange call, which is
	// exactly the documented payload-ownership window.
	return g.inbox[e.rank], nil
}

func (e *inprocEndpoint) Stats() (int64, int64) {
	return e.sentMsgs.Load(), e.sentByte.Load()
}

func (e *inprocEndpoint) Close() error {
	g := e.g
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	return nil
}
