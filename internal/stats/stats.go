// Package stats provides the atomic counters and per-iteration records the
// engine exposes, plus small formatting helpers for the benchmark harness.
// The central metric is EdgeProbEvals/Steps — the paper's machine-
// independent "edges/step" (number of edge transition probabilities
// computed per walker move, Tables 1 and 5, Figure 6).
package stats

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters aggregates engine activity. All fields are safe for concurrent
// update; read them after a run (or via Snapshot for a consistent-enough
// view mid-run).
//
// # The Snapshot consistency contract
//
// Snapshot loads each field with an individual atomic read; it does not
// stop the engine. That gives exactly two guarantees:
//
//  1. per-field atomicity — every value returned was the field's true
//     value at some instant during the Snapshot call (never a torn word),
//     and
//  2. per-field monotonicity — successive Snapshots of a running engine
//     never observe any individual counter decreasing.
//
// It deliberately does NOT guarantee cross-field consistency: the fields
// are read at slightly different instants, so mid-run invariants that
// couple fields (e.g. EdgeProbEvals >= Steps, or Trials >= PreAccepts) may
// be violated by a snapshot taken while workers are between the paired
// increments. Derived ratios such as EdgesPerStep are therefore
// approximations mid-run. For exact values — the run report, golden tests,
// checkpoint segments — snapshot only after the run goroutines have joined
// (core.Run/RunNode return) or at a superstep barrier, where no worker is
// mid-update. TestSnapshotConsistencyContract pins this contract.
type Counters struct {
	// EdgeProbEvals counts dynamic transition probability (Pd) evaluations.
	EdgeProbEvals atomic.Int64
	// Trials counts rejection-sampling darts thrown.
	Trials atomic.Int64
	// PreAccepts counts darts accepted below the lower bound L without a Pd
	// evaluation.
	PreAccepts atomic.Int64
	// AppendixHits counts darts landing in outlier appendices.
	AppendixHits atomic.Int64
	// Queries counts walker-to-vertex state queries issued.
	Queries atomic.Int64
	// Messages counts transport messages sent (walker moves + queries +
	// responses).
	Messages atomic.Int64
	// BytesSent counts transport payload bytes.
	BytesSent atomic.Int64
	// Steps counts successful walker moves.
	Steps atomic.Int64
	// Restarts counts restart teleports (random walk with restart).
	Restarts atomic.Int64
	// Terminations counts walkers that finished their walk.
	Terminations atomic.Int64
	// Checkpoints counts committed checkpoints (manifests written).
	Checkpoints atomic.Int64
	// CheckpointBytes counts snapshot segment bytes written.
	CheckpointBytes atomic.Int64
	// CheckpointNanos accumulates wall time spent encoding and writing
	// snapshot segments (summed across ranks).
	CheckpointNanos atomic.Int64
	// RestoreNanos accumulates wall time spent loading checkpointed state
	// back into the engine on resume.
	RestoreNanos atomic.Int64
	// ExchangeNanos accumulates wall time spent inside transport Exchange
	// calls (communication + barrier wait, summed across ranks) — the
	// denominator for separating network cost from compute.
	ExchangeNanos atomic.Int64

	// StepTrials is the distribution of rejection darts per completed
	// walker step (1 for static walks and pre-accepted darts, higher under
	// rejection pressure); once the run joins its count equals Steps.
	// Engine workers fill it the way they fill Trials: locally, folded in
	// once per phase.
	StepTrials Pow2Histogram
	// QueryBatch is the distribution of records per incoming phase-B
	// state-query batch — one observation per (sender, receiver) pair per
	// superstep.
	//
	// Snapshot and Add cover the scalar counters only, so neither
	// distribution enters checkpoints or reports.
	QueryBatch Pow2Histogram
}

// Snapshot is a plain copy of the counter values. See the Counters doc for
// the consistency contract of snapshots taken while the engine is running.
type Snapshot struct {
	EdgeProbEvals int64
	Trials        int64
	PreAccepts    int64
	AppendixHits  int64
	Queries       int64
	Messages      int64
	BytesSent     int64
	Steps         int64
	Restarts      int64
	Terminations  int64

	Checkpoints     int64
	CheckpointBytes int64
	CheckpointNanos int64
	RestoreNanos    int64
	ExchangeNanos   int64
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		EdgeProbEvals: c.EdgeProbEvals.Load(),
		Trials:        c.Trials.Load(),
		PreAccepts:    c.PreAccepts.Load(),
		AppendixHits:  c.AppendixHits.Load(),
		Queries:       c.Queries.Load(),
		Messages:      c.Messages.Load(),
		BytesSent:     c.BytesSent.Load(),
		Steps:         c.Steps.Load(),
		Restarts:      c.Restarts.Load(),
		Terminations:  c.Terminations.Load(),

		Checkpoints:     c.Checkpoints.Load(),
		CheckpointBytes: c.CheckpointBytes.Load(),
		CheckpointNanos: c.CheckpointNanos.Load(),
		RestoreNanos:    c.RestoreNanos.Load(),
		ExchangeNanos:   c.ExchangeNanos.Load(),
	}
}

// Add accumulates a snapshot into the counters (used when merging per-rank
// checkpoint snapshots into a shared counter set).
func (c *Counters) Add(s Snapshot) {
	c.EdgeProbEvals.Add(s.EdgeProbEvals)
	c.Trials.Add(s.Trials)
	c.PreAccepts.Add(s.PreAccepts)
	c.AppendixHits.Add(s.AppendixHits)
	c.Queries.Add(s.Queries)
	c.Messages.Add(s.Messages)
	c.BytesSent.Add(s.BytesSent)
	c.Steps.Add(s.Steps)
	c.Restarts.Add(s.Restarts)
	c.Terminations.Add(s.Terminations)
	c.Checkpoints.Add(s.Checkpoints)
	c.CheckpointBytes.Add(s.CheckpointBytes)
	c.CheckpointNanos.Add(s.CheckpointNanos)
	c.RestoreNanos.Add(s.RestoreNanos)
	c.ExchangeNanos.Add(s.ExchangeNanos)
}

// EdgesPerStep returns EdgeProbEvals/Steps, the paper's edges/step metric
// (0 when no steps were taken).
func (s Snapshot) EdgesPerStep() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.EdgeProbEvals) / float64(s.Steps)
}

// TrialsPerStep returns rejection darts per successful move.
func (s Snapshot) TrialsPerStep() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Trials) / float64(s.Steps)
}

// Histogram is a fixed-bucket integer histogram (e.g. walk lengths).
type Histogram struct {
	mu      sync.Mutex
	buckets []int64
	max     int64
	count   int64
	sum     int64
}

// NewHistogram creates a histogram with buckets [0..n-1] plus an overflow
// bucket for values >= n.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: NewHistogram requires n > 0")
	}
	return &Histogram{buckets: make([]int64, n+1)}
}

// Observe records a value. The engine calls it once per finished walker.
//
//kk:hotpath
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := v
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(len(h.buckets)-1) {
		idx = int64(len(h.buckets) - 1)
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the maximum observation.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// HistogramState is a plain copy of a histogram's internals, used to
// serialize it into a checkpoint segment.
type HistogramState struct {
	Buckets []int64
	Count   int64
	Sum     int64
	Max     int64
}

// State captures the histogram for serialization.
func (h *Histogram) State() HistogramState {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := make([]int64, len(h.buckets))
	copy(buckets, h.buckets)
	return HistogramState{Buckets: buckets, Count: h.count, Sum: h.sum, Max: h.max}
}

// View calls fn with the histogram's state under its lock, the buckets
// shared rather than copied, for an encoder that needs no copy of them:
// fn must neither keep nor modify them, nor call back into h.
func (h *Histogram) View(fn func(HistogramState)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn(HistogramState{Buckets: h.buckets, Count: h.count, Sum: h.sum, Max: h.max})
}

// AddState merges a previously captured state into h (checkpoint restore).
// The bucket layouts must match, which they do whenever the run is resumed
// with the same algorithm configuration.
func (h *Histogram) AddState(s HistogramState) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(s.Buckets) != len(h.buckets) {
		return fmt.Errorf("stats: histogram has %d buckets, restored state has %d", len(h.buckets), len(s.Buckets))
	}
	for i, b := range s.Buckets {
		h.buckets[i] += b
	}
	h.count += s.Count
	h.sum += s.Sum
	if s.Max > h.max {
		h.max = s.Max
	}
	return nil
}

// Table accumulates aligned rows for human-readable experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.header, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
