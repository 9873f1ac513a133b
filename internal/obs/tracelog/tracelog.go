// Package tracelog is the causal-tracing collector: a bounded,
// pre-allocated ring buffer of fixed-size events recording one run's
// trace tree — job → rank → superstep → phase spans, transport exchange
// spans with per-peer attribution, and the journeys of deterministically
// sampled walkers (step decisions, rank migrations, rejection trial
// counts). perfetto.go renders the ring as Chrome trace-event / Perfetto
// JSON; the critical-path aggregator attributes each superstep barrier to
// the rank that gated it.
//
// Cost model: when tracing is off (Config.Trace nil) the engine pays one
// nil check per hook and the collector does not exist. When on, every
// event is a struct assignment into the pre-allocated ring under one
// mutex — no allocation after New. Events are rare by construction
// (spans per superstep per rank, journeys only for sampled walkers), so
// a mutex is cheaper and simpler than a lock-free ring and is trivially
// race-clean under concurrent ranks.
//
// Determinism: sampling is a pure function of the walker ID
// (id % SampleEvery == 0 — no RNG, no state), so a given seed samples the
// same walker journeys run after run, whatever the scheduling. Event
// timestamps are wall-clock and vary between runs; nothing in the engine
// reads them back, so tracing cannot change walk output (pinned by
// TestTraceOnOffBitIdentical in internal/core).
package tracelog

import (
	"sync"
	"time"

	"knightking/internal/core"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

// Kind discriminates ring events.
type Kind uint8

const (
	// KindSuperstep is one rank's superstep span. A = local walkers,
	// B = global walkers.
	KindSuperstep Kind = iota + 1
	// Phase children of a superstep span. The engine reports phase
	// *totals*, not intervals, so the collector lays the phases out
	// sequentially inside the superstep span (compute, exchange, barrier,
	// checkpoint) — a synthesized but duration-faithful layout.
	KindPhaseCompute
	KindPhaseExchange
	KindPhaseBarrier
	KindPhaseCheckpoint
	// Stage children of a compute phase (interleaved stepping only).
	// Stage times are CPU sums across workers, so the layout scales them
	// proportionally to fit the compute phase's wall extent; A carries the
	// true CPU-sum nanoseconds.
	KindStageGather
	KindStageMove
	KindStageUpdate
	// KindExchange is one transport-level collective exchange on a rank
	// (real wall-clock interval, unlike the synthesized phase layout).
	// A = delivered payload bytes, B = delivered messages.
	KindExchange
	// KindExchangePeer attributes one exchange's deliveries to a sender:
	// Peer = sending rank, A = bytes, B = messages.
	KindExchangePeer
	// Walker journey instants (sampled walkers only). A = vertex,
	// B = rejection trials (step events), Peer = destination rank
	// (migrate events).
	KindWalkerStep
	KindWalkerFinish
	KindWalkerTeleport
	KindWalkerPark
	KindWalkerYield
	KindWalkerMigrate
)

// Event is one fixed-size ring entry. Field meanings vary by Kind (see
// the Kind docs); unused fields are zero except Walker, Iter, and Peer,
// which use -1 for "not applicable".
type Event struct {
	TS     int64 // nanos since the collector's epoch (span start for spans)
	Dur    int64 // span duration in nanos, 0 for instants
	Walker int64 // walker ID for journey events, -1 otherwise
	A, B   int64 // kind-specific payload
	Iter   int32 // 1-based superstep, -1 when unknown (transport events)
	Step   int32 // walker step count for journey events
	Rank   int16
	Peer   int16 // peer rank for exchange-peer/migrate events, -1 otherwise
	Kind   Kind
}

// Defaults for Options.
const (
	DefaultCapacity    = 1 << 16
	DefaultSampleEvery = 64
)

// Options configures a Collector.
type Options struct {
	// Capacity is the ring size in events, rounded up to a power of two
	// (default DefaultCapacity). When full, the oldest events are
	// overwritten and counted as evicted.
	Capacity int
	// SampleEvery samples one in N walker journeys by ID (walker IDs
	// divisible by N; default DefaultSampleEvery, 1 traces every walker).
	SampleEvery int64
	// Ranks is the run's rank count, needed to know when every rank has
	// reported a superstep so its barrier can be attributed (default 1).
	Ranks int
	// Job labels the trace's process track (default "walk").
	Job string
	// NowNanos overrides the collector's clock (monotonic nanoseconds
	// since an arbitrary epoch). Tests inject a deterministic clock here;
	// the default reads the monotonic wall clock.
	NowNanos func() int64
}

// Collector is the ring-buffer trace collector. It implements
// core.Observer (superstep → phase spans) and core.Tracer (sampled walker
// journeys, exchange spans with peer attribution), so one value can serve
// as a run's Observer and Trace at once — internal/service wires it
// exactly that way — or be a run's Trace while hanging off
// internal/obs.Registry via SetTrace for the spans.
type Collector struct {
	sampleEvery int64
	ranks       int
	job         string
	now         func() int64

	mu      sync.Mutex
	buf     []Event
	mask    uint64
	next    uint64 // total events ever recorded
	evicted uint64

	// Per-peer aggregation scratch for ObserveExchangePeers, grown once.
	peerBytes []int64
	peerMsgs  []int64

	// Critical-path aggregation: per in-flight superstep, the slowest
	// rank seen so far; folded into gates when every rank has reported.
	pending map[int32]*gatePending
	gates   []gateTotals
}

type gatePending struct {
	seen      int
	bestRank  int16
	bestNanos int64
}

type gateTotals struct {
	supersteps int
	nanos      int64
}

// New builds a collector; all ring storage is allocated here.
func New(opts Options) *Collector {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	// Round up to a power of two so the ring index is a mask.
	n := 1
	for n < capacity {
		n <<= 1
	}
	sample := opts.SampleEvery
	if sample <= 0 {
		sample = DefaultSampleEvery
	}
	ranks := opts.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	job := opts.Job
	if job == "" {
		job = "walk"
	}
	now := opts.NowNanos
	if now == nil {
		epoch := time.Now() //kk:nondet-ok trace timestamps are telemetry-only; never feed walk state
		now = func() int64 {
			return time.Since(epoch).Nanoseconds() //kk:nondet-ok trace timestamps are telemetry-only; never feed walk state
		}
	}
	return &Collector{
		sampleEvery: sample,
		ranks:       ranks,
		job:         job,
		now:         now,
		buf:         make([]Event, n),
		mask:        uint64(n - 1),
		pending:     make(map[int32]*gatePending, 4),
		gates:       make([]gateTotals, ranks),
	}
}

// Job returns the trace's job label.
func (c *Collector) Job() string { return c.job }

// put appends one event, overwriting the oldest when full. mu held.
//
//kk:hotpath
func (c *Collector) put(ev Event) {
	if c.next >= uint64(len(c.buf)) {
		c.evicted++
	}
	c.buf[c.next&c.mask] = ev
	c.next++
}

// Events returns a copy of the retained events in recording order plus
// the count of evicted (overwritten) older events.
func (c *Collector) Events() ([]Event, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.next
	if n > uint64(len(c.buf)) {
		n = uint64(len(c.buf))
	}
	out := make([]Event, n)
	start := c.next - n
	for i := uint64(0); i < n; i++ {
		out[i] = c.buf[(start+i)&c.mask]
	}
	return out, c.evicted
}

// OnSuperstep records one rank's superstep as a span tree: the superstep
// span, its phase children laid out sequentially, and — when stage times
// are present — the compute phase's gather/move/update stages scaled to
// its extent. Implements core.Observer.
func (c *Collector) OnSuperstep(span core.SuperstepSpan) {
	end := c.now()
	total := span.ComputeNanos + span.ExchangeNanos + span.BarrierNanos + span.CheckpointNanos
	start := end - total
	rank := int16(span.Rank)
	iter := int32(span.Iteration)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(Event{
		TS: start, Dur: total, Walker: -1, Peer: -1,
		A: int64(span.LocalWalkers), B: span.GlobalWalkers,
		Iter: iter, Rank: rank, Kind: KindSuperstep,
	})
	ts := start
	phase := func(kind Kind, dur int64) int64 {
		if dur <= 0 {
			return 0
		}
		pstart := ts
		c.put(Event{TS: pstart, Dur: dur, Walker: -1, Peer: -1, Iter: iter, Rank: rank, Kind: kind})
		ts += dur
		return pstart
	}
	computeStart := phase(KindPhaseCompute, span.ComputeNanos)
	if stageTotal := span.GatherNanos + span.MoveNanos + span.UpdateNanos; stageTotal > 0 && span.ComputeNanos > 0 {
		// Proportional layout inside the compute phase; A keeps the true
		// CPU-sum nanoseconds (can exceed the wall share on multi-worker
		// ranks).
		sts := computeStart
		stage := func(kind Kind, cpu int64) {
			if cpu <= 0 {
				return
			}
			dur := span.ComputeNanos * cpu / stageTotal
			c.put(Event{TS: sts, Dur: dur, Walker: -1, Peer: -1, A: cpu, Iter: iter, Rank: rank, Kind: kind})
			sts += dur
		}
		stage(KindStageGather, span.GatherNanos)
		stage(KindStageMove, span.MoveNanos)
		stage(KindStageUpdate, span.UpdateNanos)
	}
	phase(KindPhaseExchange, span.ExchangeNanos)
	phase(KindPhaseBarrier, span.BarrierNanos)
	phase(KindPhaseCheckpoint, span.CheckpointNanos)
	c.foldGateLocked(span)
}

// foldGateLocked feeds the critical-path aggregator: the rank that gated
// a superstep's barrier is the one with the largest owned pre-barrier
// work (compute + checkpoint; exchange time is mostly *waiting* on other
// ranks, so it measures the victims, not the straggler). mu held.
func (c *Collector) foldGateLocked(span core.SuperstepSpan) {
	owned := span.ComputeNanos + span.CheckpointNanos
	iter := int32(span.Iteration)
	p := c.pending[iter]
	if p == nil {
		p = &gatePending{bestRank: -1}
		c.pending[iter] = p
	}
	p.seen++
	if p.bestRank < 0 || owned > p.bestNanos {
		p.bestRank = int16(span.Rank)
		p.bestNanos = owned
	}
	if p.seen >= c.ranks {
		if int(p.bestRank) < len(c.gates) {
			c.gates[p.bestRank].supersteps++
			c.gates[p.bestRank].nanos += p.bestNanos
		}
		delete(c.pending, iter)
	}
}

// CriticalPath returns the per-rank barrier attribution so far, sorted by
// rank; ranks that never gated a barrier are omitted. Supersteps whose
// spans have not all arrived (or were emitted by fewer ranks than
// Options.Ranks) are not counted.
func (c *Collector) CriticalPath() []stats.RankGate {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []stats.RankGate
	for rank, g := range c.gates {
		if g.supersteps == 0 {
			continue
		}
		out = append(out, stats.RankGate{
			Rank:         rank,
			Supersteps:   g.supersteps,
			GatedSeconds: time.Duration(g.nanos).Seconds(),
		})
	}
	return out
}

// TraceWalker implements core.Tracer: walker id's journey is sampled iff
// id is divisible by SampleEvery — a pure function of the ID, so the
// sampled set is identical run-to-run for a given seed.
//
//kk:hotpath
func (c *Collector) TraceWalker(id int64) bool {
	return id%c.sampleEvery == 0
}

// OnWalkerEvent implements core.Tracer, recording one sampled walker's
// step decision as a journey instant.
//
//kk:hotpath
func (c *Collector) OnWalkerEvent(ev core.WalkerTraceEvent) {
	kind, ok := walkerKind(ev.Kind)
	if !ok {
		return
	}
	ts := c.now()
	c.mu.Lock()
	c.put(Event{
		TS: ts, Walker: ev.Walker, A: int64(ev.Vertex), B: int64(ev.Trials),
		Iter: int32(ev.Iteration), Step: ev.Step,
		Rank: int16(ev.Rank), Peer: int16(ev.Peer), Kind: kind,
	})
	c.mu.Unlock()
}

func walkerKind(k core.WalkerEventKind) (Kind, bool) {
	switch k {
	case core.WalkerStep:
		return KindWalkerStep, true
	case core.WalkerFinish:
		return KindWalkerFinish, true
	case core.WalkerTeleport:
		return KindWalkerTeleport, true
	case core.WalkerPark:
		return KindWalkerPark, true
	case core.WalkerYield:
		return KindWalkerYield, true
	case core.WalkerMigrate:
		return KindWalkerMigrate, true
	}
	return 0, false
}

// ObserveExchangePeers implements core.Tracer: one real wall-clock
// exchange span on the receiving rank's transport track, plus one
// attribution event per sending peer. The msgs slice is owned by the
// endpoint — everything needed is aggregated before returning.
func (c *Collector) ObserveExchangePeers(rank int, d time.Duration, msgs []transport.Message) {
	end := c.now()
	dn := d.Nanoseconds()

	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	maxPeer := -1
	for _, m := range msgs {
		if m.From < 0 {
			continue
		}
		if m.From >= len(c.peerBytes) {
			grown := make([]int64, m.From+1)
			copy(grown, c.peerBytes)
			c.peerBytes = grown
			grown = make([]int64, m.From+1)
			copy(grown, c.peerMsgs)
			c.peerMsgs = grown
		}
		n := int64(len(m.Payload))
		c.peerBytes[m.From] += n
		c.peerMsgs[m.From]++
		bytes += n
		if m.From > maxPeer {
			maxPeer = m.From
		}
	}
	c.put(Event{
		TS: end - dn, Dur: dn, Walker: -1, Peer: -1, Iter: -1,
		A: bytes, B: int64(len(msgs)),
		Rank: int16(rank), Kind: KindExchange,
	})
	for p := 0; p <= maxPeer; p++ {
		if c.peerMsgs[p] == 0 {
			continue
		}
		c.put(Event{
			TS: end, Walker: -1, Iter: -1,
			A: c.peerBytes[p], B: c.peerMsgs[p],
			Rank: int16(rank), Peer: int16(p), Kind: KindExchangePeer,
		})
		c.peerBytes[p], c.peerMsgs[p] = 0, 0
	}
}

// Status summarizes the collector for /statusz.
type Status struct {
	Events      uint64           `json:"events"`
	Evicted     uint64           `json:"evicted"`
	Capacity    int              `json:"capacity"`
	SampleEvery int64            `json:"sample_every"`
	Critical    []stats.RankGate `json:"critical_path,omitempty"`
}

// StatusSnapshot returns the collector's current Status.
func (c *Collector) StatusSnapshot() Status {
	crit := c.CriticalPath()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Events:      c.next,
		Evicted:     c.evicted,
		Capacity:    len(c.buf),
		SampleEvery: c.sampleEvery,
		Critical:    crit,
	}
}
