// Package obs is the engine's telemetry layer: per-superstep span records
// with JSONL export, a Prometheus-text + /statusz + pprof admin server,
// the metric names and rendering of the engine's power-of-two histograms,
// and the glue that fills the end-of-run stats.Report. The Registry type
// implements core.Observer and derives every histogram the engine does not
// count itself from the superstep spans, so one value wires the whole
// engine.
//
// Telemetry is strictly passive: observations never touch walker RNG
// streams, so enabling it cannot change walk output (pinned by
// TestTelemetryDoesNotChangeWalkOutput).
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"knightking/internal/core"
	"knightking/internal/obs/tracelog"
	"knightking/internal/stats"
)

// SpanSchemaVersion is the version stamped into the v field of every
// span the registry encodes to a -spans JSONL sink. History:
//
//	(absent) — the pre-versioning encoding (PR 3); readers should treat
//	           a missing v as version 1.
//	2        — adds the v field itself (encoding otherwise unchanged).
//	3        — adds checkpoint_bytes (omitted when zero).
//
// Bump it whenever a field is added, removed, or changes meaning, and
// update the golden encoding test in span_test.go.
const SpanSchemaVersion = 3

// Registry is the run-wide telemetry hub: the engine histograms, the
// per-superstep span log, and the live state the admin server exposes. It
// implements core.Observer and derives the exchange and checkpoint
// histograms from the spans; the trials-per-step and query-batch
// histograms are the engine's own distributions in the counter set, so
// wiring a run is:
//
//	reg := obs.NewRegistry(counters)
//	cfg.Counters = reg.Counters()
//	cfg.Observer = reg
//
// Under core.Run every simulated rank shares one registry, so cross-rank
// histogram merging is implicit; multi-process ranks each own a registry
// and report per-rank. All methods are safe for concurrent use.
type Registry struct {
	counters *stats.Counters
	start    time.Time

	// Engine histograms, fixed at construction. The first two name the
	// counters' StepTrials and QueryBatch distributions.
	TrialsPerStep   *Histogram // rejection darts per completed walker step
	QueryBatch      *Histogram // records per incoming phase-B query batch
	ExchangeLatency *Histogram // exchange nanoseconds per rank-superstep
	CheckpointBytes *Histogram // bytes per durably written checkpoint segment
	CheckpointWrite *Histogram // checkpoint nanoseconds per rank-checkpoint

	// Live gauges, updated by OnSuperstep.
	superstep     atomic.Int64
	activeWalkers atomic.Int64
	lightMode     atomic.Bool

	// Interleaved-pipeline stage totals, summed across ranks and supersteps.
	// All three stay zero under scalar stepping.
	gatherNanos atomic.Int64
	moveNanos   atomic.Int64
	updateNanos atomic.Int64

	metaMu   sync.Mutex
	alg      string
	vertices int
	edges    int64
	ranks    int

	spanMu       sync.Mutex
	spans        []core.SuperstepSpan
	spanEnc      *json.Encoder
	rankExchange map[int]int64

	// trace, when set, receives every span the registry sees, building the
	// run's causal trace alongside the aggregates (see SetTrace).
	trace atomic.Pointer[tracelog.Collector]
}

// NewRegistry creates a registry reading live counter values from c (a new
// counter set is allocated when c is nil; Counters returns it for wiring
// into core.Config).
func NewRegistry(c *stats.Counters) *Registry {
	if c == nil {
		c = &stats.Counters{}
	}
	return &Registry{
		counters: c,
		start:    time.Now(),

		TrialsPerStep:   &Histogram{"trials_per_step", "Rejection-sampling darts thrown per completed walker step.", &c.StepTrials},
		QueryBatch:      &Histogram{"query_batch_records", "State-query records per incoming phase-B batch.", &c.QueryBatch},
		ExchangeLatency: NewHistogram("exchange_latency_ns", "Wall nanoseconds per rank-superstep spent in collective exchanges (wire + barrier wait)."),
		CheckpointBytes: NewHistogram("checkpoint_segment_bytes", "Bytes per durably written checkpoint segment."),
		CheckpointWrite: NewHistogram("checkpoint_write_ns", "Wall nanoseconds per rank-checkpoint (encode, segment write with fsync, commit barrier)."),

		rankExchange: make(map[int]int64),
	}
}

// Counters returns the counter set the registry reads from; pass the same
// set to core.Config so /metrics sees live engine counters.
func (r *Registry) Counters() *stats.Counters { return r.counters }

// SetRunInfo records the run's shape for /statusz and report filling.
func (r *Registry) SetRunInfo(algorithm string, vertices int, edges int64, ranks int) {
	r.metaMu.Lock()
	r.alg, r.vertices, r.edges, r.ranks = algorithm, vertices, edges, ranks
	r.metaMu.Unlock()
}

// SetTrace attaches a causal-trace collector: the registry forwards every
// superstep span to it, and /statusz and FillReport pick up its
// critical-path summary. Wire the same collector into core.Config.Trace
// for walker journeys and exchange spans. Call before the run starts.
func (r *Registry) SetTrace(c *tracelog.Collector) { r.trace.Store(c) }

// Trace returns the attached collector, or nil.
func (r *Registry) Trace() *tracelog.Collector { return r.trace.Load() }

// SetSpanWriter streams every span to w as one JSON object per line, in
// arrival order, as the run progresses (a crash loses at most the spans
// the OS had not flushed). Call before the run starts.
func (r *Registry) SetSpanWriter(w io.Writer) {
	r.spanMu.Lock()
	r.spanEnc = json.NewEncoder(w)
	r.spanMu.Unlock()
}

// OnSuperstep implements core.Observer: it appends the span to the log,
// streams it to the span writer, folds the phase durations into the
// per-rank totals behind StragglerSkew and the exchange and checkpoint
// histograms, and refreshes the live gauges.
func (r *Registry) OnSuperstep(span core.SuperstepSpan) {
	// Stamp the encoding schema version on the registry's own copy; the
	// engine's span value is never touched.
	span = stampVersion(span)
	if c := r.trace.Load(); c != nil {
		c.OnSuperstep(span)
	}
	if int64(span.Iteration) > r.superstep.Load() {
		r.superstep.Store(int64(span.Iteration))
		r.activeWalkers.Store(span.GlobalWalkers)
	}
	if span.Rank == 0 {
		r.lightMode.Store(span.LightMode)
	}
	r.ExchangeLatency.Observe(span.ExchangeNanos)
	if span.CheckpointBytes > 0 {
		r.CheckpointBytes.Observe(span.CheckpointBytes)
		r.CheckpointWrite.Observe(span.CheckpointNanos)
	}
	r.gatherNanos.Add(span.GatherNanos)
	r.moveNanos.Add(span.MoveNanos)
	r.updateNanos.Add(span.UpdateNanos)
	r.spanMu.Lock()
	r.spans = append(r.spans, span)
	r.rankExchange[span.Rank] += span.ExchangeNanos
	enc := r.spanEnc
	if enc != nil {
		// Encode inside the lock so concurrent ranks cannot interleave
		// lines; Encoder appends the newline that makes this JSONL.
		enc.Encode(span)
	}
	r.spanMu.Unlock()
}

// stampVersion returns sp with the JSONL schema version set.
func stampVersion(sp core.SuperstepSpan) core.SuperstepSpan {
	sp.V = SpanSchemaVersion
	return sp
}

// Histograms returns the registry's histograms in stable rendering order.
func (r *Registry) Histograms() []*Histogram {
	return []*Histogram{
		r.TrialsPerStep, r.QueryBatch,
		r.ExchangeLatency, r.CheckpointBytes, r.CheckpointWrite,
	}
}

// Spans returns a copy of the span log in arrival order.
func (r *Registry) Spans() []core.SuperstepSpan {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]core.SuperstepSpan, len(r.spans))
	copy(out, r.spans)
	return out
}

// StragglerSkew returns max/mean of the per-rank total exchange time — the
// report's load-balance number. 1.0 is perfectly balanced; 0 means fewer
// than one rank has reported.
func (r *Registry) StragglerSkew() float64 {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return skew(r.rankExchange)
}

func skew(perRank map[int]int64) float64 {
	if len(perRank) == 0 {
		return 0
	}
	var max, sum int64
	for _, v := range perRank {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(perRank))
	return float64(max) / mean
}

// FillReport stamps the registry's cross-rank numbers into a report built
// by stats.NewReport.
func (r *Registry) FillReport(rep *stats.Report) {
	rep.StragglerSkew = r.StragglerSkew()
	if c := r.trace.Load(); c != nil {
		rep.CriticalPath = c.CriticalPath()
	}
}

// StageNanos is the cross-rank breakdown of the interleaved stepping
// pipeline: cumulative worker CPU nanoseconds per stage. Zero-valued under
// scalar stepping.
type StageNanos struct {
	Gather int64 `json:"gather_ns"`
	Move   int64 `json:"move_ns"`
	Update int64 `json:"update_ns"`
}

// StageTotals returns the cumulative pipeline stage times.
func (r *Registry) StageTotals() StageNanos {
	return StageNanos{
		Gather: r.gatherNanos.Load(),
		Move:   r.moveNanos.Load(),
		Update: r.updateNanos.Load(),
	}
}

// HistogramStatus is the /statusz digest of one histogram.
type HistogramStatus struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Status is the /statusz snapshot of a live (or finished) run.
type Status struct {
	Algorithm     string                     `json:"algorithm,omitempty"`
	Vertices      int                        `json:"vertices,omitempty"`
	Edges         int64                      `json:"edges,omitempty"`
	Ranks         int                        `json:"ranks,omitempty"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Superstep     int64                      `json:"superstep"`
	ActiveWalkers int64                      `json:"active_walkers"`
	LightMode     bool                       `json:"light_mode"`
	Spans         int                        `json:"spans"`
	EdgesPerStep  float64                    `json:"edges_per_step"`
	StragglerSkew float64                    `json:"straggler_skew"`
	Stages        StageNanos                 `json:"stages"`
	Counters      stats.Snapshot             `json:"counters"`
	Histograms    map[string]HistogramStatus `json:"histograms"`
	Trace         *tracelog.Status           `json:"trace,omitempty"`
}

// Status snapshots the live run state. Mid-run values follow the Counters
// consistency contract: per-field exact, cross-field approximate.
func (r *Registry) Status() Status {
	c := r.counters.Snapshot()
	r.metaMu.Lock()
	st := Status{
		Algorithm: r.alg,
		Vertices:  r.vertices,
		Edges:     r.edges,
		Ranks:     r.ranks,
	}
	r.metaMu.Unlock()
	st.UptimeSeconds = time.Since(r.start).Seconds()
	st.Superstep = r.superstep.Load()
	st.ActiveWalkers = r.activeWalkers.Load()
	st.LightMode = r.lightMode.Load()
	st.EdgesPerStep = c.EdgesPerStep()
	st.StragglerSkew = r.StragglerSkew()
	st.Stages = r.StageTotals()
	st.Counters = c
	r.spanMu.Lock()
	st.Spans = len(r.spans)
	r.spanMu.Unlock()
	if c := r.trace.Load(); c != nil {
		ts := c.StatusSnapshot()
		st.Trace = &ts
	}
	hists := r.Histograms()
	st.Histograms = make(map[string]HistogramStatus, len(hists))
	for _, h := range hists {
		s := h.Snapshot()
		st.Histograms[h.name] = HistogramStatus{
			Count: s.Count,
			Mean:  s.Mean(),
			P50:   s.Quantile(0.50),
			P99:   s.Quantile(0.99),
			Max:   s.Max,
		}
	}
	return st
}
