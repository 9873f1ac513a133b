package obs

import (
	"fmt"
	"io"

	"knightking/internal/stats"
)

// metricPrefix namespaces every exported metric family.
const metricPrefix = "kk_"

// Histogram names a stats.Pow2Histogram for the Prometheus page. The name
// becomes the metric family (prefixed "kk_"), so use snake_case with a
// unit suffix.
type Histogram struct {
	name, help string
	*stats.Pow2Histogram
}

// NewHistogram creates a named, empty histogram.
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name, help, new(stats.Pow2Histogram)}
}

// counterMetric pairs one exported counter with its help text.
type counterMetric struct {
	name string
	help string
	val  func(stats.Snapshot) int64
}

// counterMetrics fixes the exported counter families and their order.
var counterMetrics = []counterMetric{
	{"edge_prob_evals_total", "Dynamic transition probability (Pd) evaluations.", func(s stats.Snapshot) int64 { return s.EdgeProbEvals }},
	{"trials_total", "Rejection-sampling darts thrown.", func(s stats.Snapshot) int64 { return s.Trials }},
	{"pre_accepts_total", "Darts accepted below the lower bound without a Pd evaluation.", func(s stats.Snapshot) int64 { return s.PreAccepts }},
	{"appendix_hits_total", "Darts landing in outlier appendices.", func(s stats.Snapshot) int64 { return s.AppendixHits }},
	{"queries_total", "Walker-to-vertex state queries issued.", func(s stats.Snapshot) int64 { return s.Queries }},
	{"messages_total", "Transport messages sent.", func(s stats.Snapshot) int64 { return s.Messages }},
	{"bytes_sent_total", "Transport payload bytes sent.", func(s stats.Snapshot) int64 { return s.BytesSent }},
	{"steps_total", "Successful walker moves.", func(s stats.Snapshot) int64 { return s.Steps }},
	{"restarts_total", "Restart teleports.", func(s stats.Snapshot) int64 { return s.Restarts }},
	{"terminations_total", "Walkers that finished their walk.", func(s stats.Snapshot) int64 { return s.Terminations }},
	{"checkpoints_total", "Committed checkpoints.", func(s stats.Snapshot) int64 { return s.Checkpoints }},
	{"checkpoint_bytes_total", "Checkpoint segment bytes written.", func(s stats.Snapshot) int64 { return s.CheckpointBytes }},
	{"checkpoint_nanos_total", "Wall nanoseconds spent snapshotting.", func(s stats.Snapshot) int64 { return s.CheckpointNanos }},
	{"restore_nanos_total", "Wall nanoseconds spent restoring from checkpoints.", func(s stats.Snapshot) int64 { return s.RestoreNanos }},
	{"exchange_nanos_total", "Wall nanoseconds inside transport Exchange calls.", func(s stats.Snapshot) int64 { return s.ExchangeNanos }},
}

// WriteMetrics renders the registry in the Prometheus text exposition
// format (version 0.0.4): every engine counter as a counter family, the
// live superstep state as gauges, and every histogram with cumulative
// power-of-two buckets. Deliberately excludes wall-clock-dependent values
// like uptime so the rendering of a quiesced registry is deterministic
// (pinned by the golden test).
func WriteMetrics(w io.Writer, r *Registry) error {
	if err := WriteSnapshotMetrics(w, r.counters.Snapshot()); err != nil {
		return err
	}
	if err := writeFamily(w, "superstep", "Highest superstep any rank has completed.", "gauge", r.superstep.Load()); err != nil {
		return err
	}
	if err := writeFamily(w, "active_walkers", "Cluster-wide live walker count at the last barrier.", "gauge", r.activeWalkers.Load()); err != nil {
		return err
	}
	var light int64
	if r.lightMode.Load() {
		light = 1
	}
	if err := writeFamily(w, "light_mode", "Whether rank 0 ran its last superstep in straggler light mode.", "gauge", light); err != nil {
		return err
	}
	stages := r.StageTotals()
	for _, m := range []struct {
		name, help string
		v          int64
	}{
		{"stage_gather_nanos", "Cumulative worker CPU nanoseconds in the interleaved gather stage.", stages.Gather},
		{"stage_move_nanos", "Cumulative worker CPU nanoseconds in the interleaved move stage.", stages.Move},
		{"stage_update_nanos", "Cumulative worker CPU nanoseconds in the interleaved update stage.", stages.Update},
	} {
		if err := writeFamily(w, m.name, m.help, "counter", m.v); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		if err := WriteHistogram(w, h); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotMetrics renders every engine counter family from one
// snapshot, in the registry's fixed order. The admin server's /metrics uses
// it with a live snapshot; the walk service uses it with its job-aggregate
// snapshot so one scrape surface covers both deployment shapes.
func WriteSnapshotMetrics(w io.Writer, s stats.Snapshot) error {
	for _, m := range counterMetrics {
		if err := writeFamily(w, m.name, m.help, "counter", m.val(s)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCounter renders one ad-hoc kk_-prefixed counter family in the
// Prometheus text format, for callers (e.g. internal/service) composing a
// /metrics page alongside WriteSnapshotMetrics.
func WriteCounter(w io.Writer, name, help string, v int64) error {
	return writeFamily(w, name, help, "counter", v)
}

// WriteGauge renders one ad-hoc kk_-prefixed gauge family.
func WriteGauge(w io.Writer, name, help string, v int64) error {
	return writeFamily(w, name, help, "gauge", v)
}

// WriteHistogram renders one histogram family with cumulative buckets up
// to the highest non-empty bucket, then the mandatory +Inf bucket, sum,
// and count. Callers composing a /metrics page from histograms that live
// outside a Registry (e.g. the walk service's ingest timings) use it too.
func WriteHistogram(w io.Writer, h *Histogram) error {
	s := h.Snapshot()
	if _, err := fmt.Fprintf(w, "# HELP %[1]s%[2]s %[3]s\n# TYPE %[1]s%[2]s histogram\n",
		metricPrefix, h.name, h.help); err != nil {
		return err
	}
	var cum int64
	for i := 0; i <= s.HighestNonEmpty(); i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s%s_bucket{le=\"%d\"} %d\n",
			metricPrefix, h.name, stats.Pow2Bound(i), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%[1]s%[2]s_bucket{le=\"+Inf\"} %[3]d\n%[1]s%[2]s_sum %[4]d\n%[1]s%[2]s_count %[3]d\n",
		metricPrefix, h.name, s.Count, s.Sum)
	return err
}

// LabeledValue is one sample of a labeled gauge family.
type LabeledValue struct {
	Label string
	Value int64
}

// WriteLabeledGauge renders a kk_-prefixed gauge family with one sample
// per label value (e.g. kk_serve_graph_epoch{graph="web"} 3). Samples are
// rendered in the given order; callers sort for a deterministic page.
func WriteLabeledGauge(w io.Writer, name, help, label string, samples []LabeledValue) error {
	if _, err := fmt.Fprintf(w, "# HELP %[1]s%[2]s %[3]s\n# TYPE %[1]s%[2]s gauge\n",
		metricPrefix, name, help); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%s%s{%s=%q} %d\n",
			metricPrefix, name, label, s.Label, s.Value); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, name, help, kind string, v int64) error {
	_, err := fmt.Fprintf(w, "# HELP %[1]s%[2]s %[3]s\n# TYPE %[1]s%[2]s %[4]s\n%[1]s%[2]s %[5]d\n",
		metricPrefix, name, help, kind, v)
	return err
}
