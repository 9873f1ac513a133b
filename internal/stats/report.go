package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Report is the end-of-run summary: the paper's machine-independent
// metrics (edges/step, trial behavior) plus the operational numbers a
// scripted run wants on one line. kkwalk prints it (human form on stderr,
// or exactly one JSON line on stdout under -json).
//
// Build it only from a post-join counter snapshot (see the Counters doc);
// a mid-run snapshot may violate the cross-field invariants the ratios
// assume.
type Report struct {
	// Run identity.
	Algorithm string `json:"algorithm"`
	Vertices  int    `json:"vertices"`
	Edges     int64  `json:"edges"`
	Ranks     int    `json:"ranks"`

	// Volume.
	Walkers      int64 `json:"walkers"`
	Steps        int64 `json:"steps"`
	Supersteps   int   `json:"supersteps"`
	LightSupers  int   `json:"light_supersteps"`
	Queries      int64 `json:"queries"`
	Messages     int64 `json:"messages"`
	BytesSent    int64 `json:"bytes_sent"`
	Restarts     int64 `json:"restarts,omitempty"`
	Terminations int64 `json:"terminations"`

	// The paper's machine-independent sampling metrics.
	EdgesPerStep  float64 `json:"edges_per_step"`
	TrialsPerStep float64 `json:"trials_per_step"`
	// PreAcceptRatio is the fraction of darts accepted below the lower
	// bound L without a Pd evaluation (the §4.2 lower-bound optimization).
	PreAcceptRatio float64 `json:"pre_accept_ratio"`
	// AppendixHitRatio is the fraction of darts landing in outlier
	// appendices (the §4.3 outlier folding optimization).
	AppendixHitRatio float64 `json:"appendix_hit_ratio"`

	// Wall-clock split.
	DurationSeconds float64 `json:"duration_seconds"`
	SetupSeconds    float64 `json:"setup_seconds"`
	ExchangeSeconds float64 `json:"exchange_seconds"`
	StepsPerSecond  float64 `json:"steps_per_second"`

	// StragglerSkew is max/mean of the per-rank total exchange time — 1.0
	// means a perfectly balanced cluster, higher means some rank spends
	// disproportionate time waiting at barriers. 0 when unknown (telemetry
	// off, or a multi-process rank that only sees itself).
	StragglerSkew float64 `json:"straggler_skew,omitempty"`

	// Checkpointing (zero when disabled).
	Checkpoints       int64   `json:"checkpoints,omitempty"`
	CheckpointBytes   int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointSeconds float64 `json:"checkpoint_seconds,omitempty"`
	RestoreSeconds    float64 `json:"restore_seconds,omitempty"`

	// CriticalPath attributes the run's barriers to the ranks that gated
	// them (nil when tracing was off). Entries are sorted by rank; ranks
	// that never gated a barrier are omitted. Filled by the causal-trace
	// layer (internal/obs/tracelog) after the run.
	CriticalPath []RankGate `json:"critical_path,omitempty"`
}

// RankGate is one rank's share of a run's critical path: how many
// superstep barriers it gated (it was the last rank to finish its
// pre-barrier work, so every other rank waited on it) and the total
// pre-barrier time of the supersteps it gated.
type RankGate struct {
	Rank         int     `json:"rank"`
	Supersteps   int     `json:"supersteps"`
	GatedSeconds float64 `json:"gated_seconds"`
}

// RunInfo carries the non-counter inputs of a report.
type RunInfo struct {
	Algorithm   string
	Vertices    int
	Edges       int64
	Ranks       int
	Walkers     int64
	Supersteps  int
	LightSupers int
	Duration    time.Duration
	Setup       time.Duration
}

// NewReport derives a report from a post-join counter snapshot and the
// run's shape. StragglerSkew is left 0; callers with per-rank telemetry
// (internal/obs) fill it in afterwards.
func NewReport(s Snapshot, info RunInfo) Report {
	r := Report{
		Algorithm:    info.Algorithm,
		Vertices:     info.Vertices,
		Edges:        info.Edges,
		Ranks:        info.Ranks,
		Walkers:      info.Walkers,
		Steps:        s.Steps,
		Supersteps:   info.Supersteps,
		LightSupers:  info.LightSupers,
		Queries:      s.Queries,
		Messages:     s.Messages,
		BytesSent:    s.BytesSent,
		Restarts:     s.Restarts,
		Terminations: s.Terminations,

		EdgesPerStep:  s.EdgesPerStep(),
		TrialsPerStep: s.TrialsPerStep(),

		DurationSeconds: info.Duration.Seconds(),
		SetupSeconds:    info.Setup.Seconds(),
		ExchangeSeconds: time.Duration(s.ExchangeNanos).Seconds(),

		Checkpoints:       s.Checkpoints,
		CheckpointBytes:   s.CheckpointBytes,
		CheckpointSeconds: time.Duration(s.CheckpointNanos).Seconds(),
		RestoreSeconds:    time.Duration(s.RestoreNanos).Seconds(),
	}
	if s.Trials > 0 {
		r.PreAcceptRatio = float64(s.PreAccepts) / float64(s.Trials)
		r.AppendixHitRatio = float64(s.AppendixHits) / float64(s.Trials)
	}
	if secs := info.Duration.Seconds(); secs > 0 {
		r.StepsPerSecond = float64(s.Steps) / secs
	}
	return r
}

// JSONLine renders the report as exactly one line of JSON (no trailing
// newline), the -json output contract for scripted runs.
func (r Report) JSONLine() (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// WriteHuman renders the multi-line human summary.
func (r Report) WriteHuman(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"%s on |V|=%d |E|=%d over %d ranks: %d walkers, %d steps, %d supersteps (%d light) in %.3fs (setup %.3fs)\n"+
			"sampling: %.3f edges/step, %.3f trials/step, %.1f%% pre-accepted, %.1f%% appendix hits, %d queries\n"+
			"network: %d messages, %d bytes, %.3fs in exchanges",
		r.Algorithm, r.Vertices, r.Edges, r.Ranks, r.Terminations, r.Steps,
		r.Supersteps, r.LightSupers, r.DurationSeconds, r.SetupSeconds,
		r.EdgesPerStep, r.TrialsPerStep, 100*r.PreAcceptRatio, 100*r.AppendixHitRatio, r.Queries,
		r.Messages, r.BytesSent, r.ExchangeSeconds)
	if err != nil {
		return err
	}
	if r.StragglerSkew > 0 {
		if _, err := fmt.Fprintf(w, ", straggler skew %.2f", r.StragglerSkew); err != nil {
			return err
		}
	}
	if len(r.CriticalPath) > 0 {
		top := r.CriticalPath[0]
		for _, g := range r.CriticalPath[1:] {
			if g.Supersteps > top.Supersteps {
				top = g
			}
		}
		if _, err := fmt.Fprintf(w, ", critical path: rank %d gated %d/%d supersteps",
			top.Rank, top.Supersteps, r.Supersteps); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if r.Checkpoints > 0 || r.CheckpointSeconds > 0 || r.RestoreSeconds > 0 {
		if _, err := fmt.Fprintf(w,
			"checkpoint: %d committed, %d bytes, %.3fs snapshotting, %.3fs restoring\n",
			r.Checkpoints, r.CheckpointBytes, r.CheckpointSeconds, r.RestoreSeconds); err != nil {
			return err
		}
	}
	return nil
}
