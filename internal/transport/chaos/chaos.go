// Package chaos wraps a transport.Endpoint with deterministic network
// fault injection: random and periodic delays (slow peers), truncated and
// bit-flipped payloads, and mid-run disconnects — the failure modes a real
// cluster network exhibits. A Config with only DisconnectAt set is the
// plain rank-kill the checkpoint recovery tests inject.
//
// Every decision is drawn from a seeded rng stream derived from
// (Config.Seed, rank), so a failing run replays exactly: the same
// exchanges are delayed by the same amounts, the same payload bytes are
// corrupted, and the same rank dies at the same barrier. The Events log
// records what fired, for assertions and for diffing two replays.
//
// Delays exercise the engine's timing independence (output must be
// bit-identical to an undisturbed run); corruption exercises the decode
// paths (a flipped or truncated batch must surface as a clean error, never
// a panic or a hang); disconnects exercise checkpoint recovery (the
// surviving ranks' Exchange calls return errors, the job dies, and a
// resume from the latest snapshot must reproduce the uninterrupted run).
package chaos

import (
	"fmt"
	"sync"
	"time"

	"knightking/internal/rng"
	"knightking/internal/transport"
)

// Config programs one rank's chaos. The zero value injects nothing.
type Config struct {
	// Seed roots the per-rank decision stream. Two wrappers with the same
	// (Seed, rank) and call sequence make identical decisions.
	Seed uint64
	// DelayProb is the per-exchange probability of sleeping a uniform
	// duration in (0, MaxDelay] before entering the barrier.
	DelayProb float64
	// MaxDelay bounds injected delays; also the fixed delay of slow
	// exchanges (SlowEveryN).
	MaxDelay time.Duration
	// SlowEveryN, when positive, makes every Nth exchange sleep the full
	// MaxDelay — a persistently slow straggler peer.
	SlowEveryN int
	// TruncateProb is the per-received-message probability of cutting at
	// least one byte off the payload.
	TruncateProb float64
	// BitFlipProb is the per-received-message probability of flipping one
	// uniformly chosen payload bit (checked only when truncation did not
	// fire for that message).
	BitFlipProb float64
	// DisconnectAt, when positive, closes the underlying endpoint at the
	// DisconnectAt-th Exchange call (1-based) and returns an error
	// wrapping transport.ErrInjected. Closing tears the whole group down
	// under both transports — peers blocked in Exchange return errors —
	// the way a node death stalls and then aborts a bulk-synchronous job.
	DisconnectAt int
}

// Event records one injected fault, for assertions and replay diffing.
type Event struct {
	// Exchange is the 1-based Exchange call the fault fired in.
	Exchange int
	// Kind is one of "delay", "slow", "truncate", "bitflip", "disconnect".
	Kind string
	// Detail describes the fault (duration, byte count, bit index).
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("exchange %d: %s %s", e.Exchange, e.Kind, e.Detail)
}

// Endpoint wraps a transport.Endpoint with programmed chaos. Rank, Size,
// Send, Stats, and Close delegate untouched.
type Endpoint struct {
	transport.Endpoint
	cfg Config

	mu           sync.Mutex
	r            *rng.Rand
	exchanges    int
	events       []Event
	disconnected bool
}

// Wrap programs cfg's chaos onto ep. The decision stream is derived from
// (cfg.Seed, ep.Rank()), so wrapping every rank of a group with the same
// Config still gives each rank independent, deterministic chaos.
func Wrap(ep transport.Endpoint, cfg Config) *Endpoint {
	return &Endpoint{
		Endpoint: ep,
		cfg:      cfg,
		r:        rng.NewStream(cfg.Seed, uint64(ep.Rank())),
	}
}

// Exchange injects the programmed faults around and into the wrapped
// collective.
func (c *Endpoint) Exchange() ([]transport.Message, error) {
	c.mu.Lock()
	c.exchanges++
	n := c.exchanges
	if c.cfg.DisconnectAt > 0 && n >= c.cfg.DisconnectAt && !c.disconnected {
		c.disconnected = true
		c.record(n, "disconnect", "")
		c.mu.Unlock()
		c.Endpoint.Close()
		return nil, fmt.Errorf("%w: chaos disconnected rank %d at exchange %d",
			transport.ErrInjected, c.Rank(), n)
	}
	var delay time.Duration
	switch {
	case c.cfg.SlowEveryN > 0 && n%c.cfg.SlowEveryN == 0:
		delay = c.cfg.MaxDelay
		c.record(n, "slow", delay.String())
	case c.cfg.DelayProb > 0 && c.cfg.MaxDelay > 0 && c.r.Bernoulli(c.cfg.DelayProb):
		delay = time.Duration(c.r.Range(0, float64(c.cfg.MaxDelay))) + 1
		c.record(n, "delay", delay.String())
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}

	msgs, err := c.Endpoint.Exchange()
	if err != nil {
		return msgs, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range msgs {
		p := msgs[i].Payload
		if len(p) == 0 {
			continue
		}
		switch {
		case c.cfg.TruncateProb > 0 && c.r.Bernoulli(c.cfg.TruncateProb):
			cut := 1 + c.r.Intn(len(p))
			msgs[i].Payload = p[:len(p)-cut]
			c.record(n, "truncate", fmt.Sprintf("%d of %d bytes from rank %d", cut, len(p), msgs[i].From))
		case c.cfg.BitFlipProb > 0 && c.r.Bernoulli(c.cfg.BitFlipProb):
			// Copy before flipping: the slice may be shared with the sender
			// (in-process transport) or a pooled frame buffer (TCP).
			bit := c.r.Intn(len(p) * 8)
			flipped := append([]byte(nil), p...)
			flipped[bit/8] ^= 1 << (bit % 8)
			msgs[i].Payload = flipped
			c.record(n, "bitflip", fmt.Sprintf("bit %d of %d bytes from rank %d", bit, len(p), msgs[i].From))
		}
	}
	return msgs, nil
}

// record appends an event; callers hold c.mu.
func (c *Endpoint) record(exchange int, kind, detail string) {
	c.events = append(c.events, Event{Exchange: exchange, Kind: kind, Detail: detail})
}

// Exchanges returns how many Exchange calls the wrapper has seen.
func (c *Endpoint) Exchanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exchanges
}

// Events returns a copy of the injected-fault log, in firing order.
func (c *Endpoint) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// WrapGroup wraps every endpoint of a group with the same Config; each
// rank derives its own decision stream from (cfg.Seed, rank). The
// returned slice aliases fresh chaos endpoints, leaving eps usable for
// direct inspection.
func WrapGroup(eps []transport.Endpoint, cfg Config) []*Endpoint {
	out := make([]*Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = Wrap(ep, cfg)
	}
	return out
}

// AsEndpoints converts a wrapped group to the interface slice core.Config
// accepts.
func AsEndpoints(wrapped []*Endpoint) []transport.Endpoint {
	out := make([]transport.Endpoint, len(wrapped))
	for i, w := range wrapped {
		out[i] = w
	}
	return out
}
