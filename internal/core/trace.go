// Engine-side causal-tracing hooks. Where Observer (observer.go) delivers
// aggregated per-superstep spans, Tracer delivers the fine-grained causal
// record underneath them: the journey of individual (deterministically
// sampled) walkers — every step decision, every rank migration, every
// rejection trial burst — and every collective exchange with its per-peer
// deliveries. internal/obs/tracelog provides the production
// implementation (a bounded ring-buffer collector with Perfetto export);
// the engine only defines the contract.
//
// Tracing follows the same passivity rules as observation: a nil tracer
// costs one predictable branch per hook point, hooks never touch a
// walker's RNG stream, and no hook outcome feeds walk state — so enabling
// tracing cannot change walk output.
package core

import (
	"time"

	"knightking/internal/graph"
	"knightking/internal/transport"
)

// WalkerEventKind discriminates the step outcomes a sampled walker's
// journey records.
type WalkerEventKind uint8

const (
	// WalkerStep is an accepted move: the walker traversed an edge (or is
	// about to — the event fires at acceptance, before relocation), and
	// Trials carries the rejection darts of the accepting burst, the
	// paper's core per-step cost metric.
	WalkerStep WalkerEventKind = iota + 1
	// WalkerFinish is a termination: max steps, termination probability,
	// or a dead end. The walker's journey ends here.
	WalkerFinish
	// WalkerTeleport is a restart jump back to the walker's origin (random
	// walk with restart).
	WalkerTeleport
	// WalkerPark marks the walker blocking on a remote state query (a
	// higher-order walk's dart awaiting last-vertex state on another rank).
	WalkerPark
	// WalkerYield marks a walker giving up its trial budget for this
	// superstep without a decision (higher-order rejection pressure); it
	// retries next superstep.
	WalkerYield
	// WalkerMigrate marks a cross-rank move: the walker's accepted
	// destination is owned by Peer, so its state transfers there. The
	// preceding WalkerStep event carries the step's trial count.
	WalkerMigrate
)

// WalkerTraceEvent is one sampled walker's step decision, passed by value
// so tracing allocates nothing on the hot path.
type WalkerTraceEvent struct {
	// Rank is the rank the decision was made on.
	Rank int
	// Iteration is the 1-based superstep the decision belongs to.
	Iteration int
	// Walker is the walker ID (the sampling key).
	Walker int64
	// Kind is the decision outcome.
	Kind WalkerEventKind
	// Vertex is the walker's residing vertex when the decision was made
	// (for WalkerMigrate: the destination vertex it is moving to).
	Vertex graph.VertexID
	// Step is the walker's step count at decision time.
	Step int32
	// Trials is the rejection-dart count of the accepting burst
	// (WalkerStep only; 0 elsewhere).
	Trials int32
	// Peer is the destination rank of a WalkerMigrate, -1 otherwise.
	Peer int
}

// Tracer receives the causal trace of a run. Implementations must be safe
// for concurrent use (hooks fire from every rank's loop and worker
// goroutines) and must not block; they see engine state only through
// their arguments.
//
// The engine consults TraceWalker once per walker per rank, where the
// walker is seeded or arrives, before emitting any of its events, so an
// implementation that samples by walker ID (internal/obs/tracelog samples
// id % N == 0) gets a deterministic, reproducible set of journeys for a
// given seed: the same walkers are sampled run after run, whatever the
// scheduling.
type Tracer interface {
	// TraceWalker reports whether walker id's journey is sampled. It must
	// be a pure function of id (no per-call state), so sampled journeys
	// are identical run-to-run.
	TraceWalker(id int64) bool
	// OnWalkerEvent records one sampled walker's step decision. Only
	// called for walkers TraceWalker accepted.
	OnWalkerEvent(ev WalkerTraceEvent)
	// ObserveExchangePeers is called once per completed collective
	// Exchange on the receiving rank, with the call's wall time and the
	// delivered messages — the trace's per-peer view of exchange skew. The
	// msgs slice and its payloads stay owned by the endpoint (the transport
	// payload-ownership contract): aggregate what is needed (m.From,
	// len(m.Payload)) before returning and never retain the slice.
	ObserveExchangePeers(rank int, d time.Duration, msgs []transport.Message)
}

// setTraced decides once whether w's journey is traced: the Tracer's
// TraceWalker is a pure function of the walker ID, so the answer holds for
// the walker's whole life on this rank. Called wherever a walker is seeded
// or arrives on this rank: decoded from the wire or a snapshot, or, on a
// rank with a Tracer, handed over in process as an object, whose flag is
// the sending rank's decision.
func (n *node) setTraced(w *Walker) {
	w.traced = n.tracer != nil && n.tracer.TraceWalker(w.ID)
}

// traces reports whether w's journey events are emitted on this rank. The
// tracer test comes first: with tracing off it is the whole cost, and a
// flag that an in-process migration carried in from a traced rank is never
// read.
func (n *node) traces(w *Walker) bool { return n.tracer != nil && w.traced }

// traceWalkerEvent emits one journey event of a sampled walker. Every call
// site tests traces(w) first.
func (n *node) traceWalkerEvent(w *Walker, kind WalkerEventKind, v graph.VertexID, trials int32, peer int) {
	n.tracer.OnWalkerEvent(WalkerTraceEvent{
		Rank:      n.rank,
		Iteration: int(n.curIter),
		Walker:    w.ID,
		Kind:      kind,
		Vertex:    v,
		Step:      w.Step,
		Trials:    trials,
		Peer:      peer,
	})
}
