// Engine-side telemetry hooks. The engine emits one span per rank per
// superstep through the Observer interface when Config.Observer is set; a
// nil observer also skips the stage-time clock reads, and no observation
// ever touches a walker's RNG stream, so enabling telemetry cannot change
// walk output.
// internal/obs provides the production implementation (histograms, span
// log, admin server); the engine only defines the contract.
package core

// SuperstepSpan is one rank's phase breakdown of one superstep — the
// engine's per-superstep trace record. Every rank emits one span per
// superstep it executes (including the final one that observes the global
// walker count reaching zero), so a run over R ranks and S supersteps
// yields R×S spans.
//
// The four duration fields partition the superstep's wall time:
//
//   - ComputeNanos: local walker processing (phase A), received-message
//     demux, query answering (phase B), and response resolution (phase C).
//   - ExchangeNanos: time inside transport Exchange calls — wire transfer
//     plus collective barrier wait, which the transport cannot separate.
//   - CheckpointNanos: snapshot encoding, segment write, and the extra
//     commit barrier, on supersteps where a checkpoint is due.
//   - BarrierNanos: the unattributed residual (total − compute − exchange −
//     checkpoint), dominated by goroutine scheduling delay around the
//     barrier; a rank consistently high here is a straggler's victim, not
//     the straggler itself.
type SuperstepSpan struct {
	// V is the JSONL encoding's schema version. The engine leaves it zero;
	// internal/obs stamps obs.SpanSchemaVersion when it encodes spans to a
	// -spans sink, so consumers of the JSONL stream can evolve safely.
	// (Records written before versioning existed carry no v field; readers
	// should treat a missing v as version 1.)
	V int `json:"v,omitempty"`
	// Rank is the emitting rank.
	Rank int `json:"rank"`
	// Iteration is the 1-based superstep index.
	Iteration int `json:"superstep"`
	// LightMode reports whether this rank ran the superstep single-worker.
	LightMode bool `json:"light"`
	// LocalWalkers is this rank's resident walker count at phase A start.
	LocalWalkers int `json:"local_walkers"`
	// GlobalWalkers is the cluster-wide live count agreed at the barrier
	// (walkers resident anywhere plus migrations in flight).
	GlobalWalkers int64 `json:"global_walkers"`
	// RecvMessages counts transport messages delivered to this rank during
	// the superstep's exchanges.
	RecvMessages int64 `json:"recv_msgs"`
	// RecvBytes counts the payload bytes of those messages.
	RecvBytes int64 `json:"recv_bytes"`

	ComputeNanos    int64 `json:"compute_ns"`
	ExchangeNanos   int64 `json:"exchange_ns"`
	BarrierNanos    int64 `json:"barrier_ns"`
	CheckpointNanos int64 `json:"checkpoint_ns"`
	// CheckpointBytes is the size of the segment this rank wrote on a
	// checkpoint superstep, zero elsewhere.
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`

	// Gather/Move/Update break phase A's interleaved pipeline down by
	// stage, summed across workers (CPU time, so they can exceed the
	// superstep's wall-clock ComputeNanos share on multi-worker nodes).
	// All three are zero under scalar stepping.
	GatherNanos int64 `json:"gather_ns,omitempty"`
	MoveNanos   int64 `json:"move_ns,omitempty"`
	UpdateNanos int64 `json:"update_ns,omitempty"`
}

// Observer receives engine telemetry: one span per rank per superstep.
// Implementations must be safe for concurrent use, since every rank's
// loop goroutine calls OnSuperstep. Per-step and per-message
// distributions (trials per step, query batch sizes) are not observer
// calls: the engine counts them into stats.Counters alongside Trials and
// Steps, flushed once per phase.
//
// Observations are passive — they must not block (the engine calls them
// at every barrier) and they see engine state only through their
// arguments.
type Observer interface {
	// OnSuperstep delivers one rank's completed superstep span.
	OnSuperstep(span SuperstepSpan)
}
