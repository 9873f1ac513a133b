package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metricDef declares one metric the driver emits. BENCHMARK.json carries
// Name/Unit/Better (and Bound for end-to-end metrics); Layer and Moves are
// the interaction list the README prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string // the end-to-end metric and workload this one should move
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; see README for what each means on each workload.
var endToEnd = []metricDef{
	{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wait_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	dwIn = "steps_per_s on deepwalk_inproc"
	dwCl = "steps_per_s and wait_ms on deepwalk_cluster"
	n2v  = "steps_per_s on node2vec_inproc"
	srv  = "wait_ms and steps_per_s on serve_mixed"
	none = "none (informational)"
)

// perLayer is the cost ladder, one group per package of the repository.
var perLayer = []metricDef{
	{Name: "sampling.alias_draw_ns_d16", Unit: "ns", Better: "lower", Layer: "sampling", Moves: dwIn},
	{Name: "sampling.alias_draw_ns_d4096", Unit: "ns", Better: "lower", Layer: "sampling", Moves: dwIn},
	{Name: "sampling.its_draw_ns_d16", Unit: "ns", Better: "lower", Layer: "sampling", Moves: dwIn + " with SamplerKind its"},
	{Name: "sampling.its_draw_ns_d4096", Unit: "ns", Better: "lower", Layer: "sampling", Moves: dwIn + " with SamplerKind its"},
	{Name: "sampling.alias_build_ns_per_edge", Unit: "ns", Better: "lower", Layer: "sampling", Moves: "wait_ms on serve_mixed and the deepwalk rows (engine set-up); setup_s"},
	{Name: "sampling.trials_per_step", Unit: "count", Better: "lower", Layer: "sampling", Moves: n2v},
	{Name: "sampling.edges_per_step", Unit: "count", Better: "lower", Layer: "sampling", Moves: n2v},
	{Name: "sampling.preaccept_ratio", Unit: "ratio", Better: "higher", Layer: "sampling", Moves: n2v},

	{Name: "core.setup_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "wait_ms on every row; most of a serve_mixed job"},
	{Name: "core.walk_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "steps_per_s on the three engine rows"},
	{Name: "core.supersteps", Unit: "count", Better: "lower", Layer: "core", Moves: n2v},
	{Name: "core.compute_share", Unit: "ratio", Better: "higher", Layer: "core", Moves: dwIn},
	{Name: "core.exchange_share", Unit: "ratio", Better: "lower", Layer: "core", Moves: n2v + "; " + dwCl},
	{Name: "core.barrier_share", Unit: "ratio", Better: "lower", Layer: "core", Moves: "steps_per_s on the three engine rows"},
	{Name: "core.checkpoint_share", Unit: "ratio", Better: "lower", Layer: "core", Moves: dwCl},
	{Name: "core.gather_ns_per_step", Unit: "ns", Better: "lower", Layer: "core", Moves: dwIn},
	{Name: "core.move_ns_per_step", Unit: "ns", Better: "lower", Layer: "core", Moves: dwIn},
	{Name: "core.update_ns_per_step", Unit: "ns", Better: "lower", Layer: "core", Moves: dwIn},
	{Name: "core.allocs_per_step", Unit: "count", Better: "lower", Layer: "core", Moves: "steps_per_s and peak_rss_mb on the in-process rows"},
	{Name: "core.queries_per_step", Unit: "count", Better: "lower", Layer: "core", Moves: n2v},
	{Name: "core.light_iterations", Unit: "count", Better: "lower", Layer: "core", Moves: none},
	{Name: "core.scalar_steps_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: none + ": the which-loop rung"},

	{Name: "transport.inproc_exchange_ns_per_msg", Unit: "ns", Better: "lower", Layer: "transport", Moves: n2v},
	{Name: "transport.tcp_exchange_ns_per_msg_small", Unit: "ns", Better: "lower", Layer: "transport", Moves: dwCl},
	{Name: "transport.tcp_exchange_ns_per_msg_64k", Unit: "ns", Better: "lower", Layer: "transport", Moves: dwCl},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "transport", Moves: dwCl},
	{Name: "transport.bytes_per_step", Unit: "count", Better: "lower", Layer: "transport", Moves: dwCl},
	{Name: "transport.msgs_per_superstep", Unit: "count", Better: "lower", Layer: "transport", Moves: dwCl},
	{Name: "transport.wire_price", Unit: "ratio", Better: "lower", Layer: "transport", Moves: dwCl},

	{Name: "checkpoint.write_ns_per_walker", Unit: "ns", Better: "lower", Layer: "checkpoint", Moves: dwCl},
	{Name: "checkpoint.bytes_per_walker", Unit: "count", Better: "lower", Layer: "checkpoint", Moves: dwCl},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower", Layer: "checkpoint", Moves: "coord.failover_resume_ms"},
	{Name: "checkpoint.count", Unit: "count", Better: "lower", Layer: "checkpoint", Moves: dwCl},

	{Name: "coord.gather_ms", Unit: "ms", Better: "lower", Layer: "coord", Moves: "wait_ms on deepwalk_cluster"},
	{Name: "coord.assign_to_start_ms", Unit: "ms", Better: "lower", Layer: "coord", Moves: "wait_ms on deepwalk_cluster"},
	{Name: "coord.result_gather_ms", Unit: "ms", Better: "lower", Layer: "coord", Moves: "wait_ms on deepwalk_cluster"},
	{Name: "coord.failover_detect_ms", Unit: "ms", Better: "lower", Layer: "coord", Moves: none},
	{Name: "coord.failover_resume_ms", Unit: "ms", Better: "lower", Layer: "coord", Moves: none},
	{Name: "coord.failover_overhead_s", Unit: "s", Better: "lower", Layer: "coord", Moves: none},

	{Name: "service.submit_rtt_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.queue_wait_p90_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.job_run_p50_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.result_lag_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.rejected_429", Unit: "count", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.submit_result_p90_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: srv},
	{Name: "service.submit_result_p99_ms", Unit: "ms", Better: "lower", Layer: "service", Moves: none},
	{Name: "service.jobs_per_s", Unit: "1/s", Better: "higher", Layer: "service", Moves: srv},

	{Name: "dyngraph.apply_ns_per_delta_uniform", Unit: "ns", Better: "lower", Layer: "dyngraph", Moves: "dyngraph.ingest_batch_p50_ms"},
	{Name: "dyngraph.apply_ns_per_delta_hub", Unit: "ns", Better: "lower", Layer: "dyngraph", Moves: "dyngraph.ingest_batch_p50_ms"},
	{Name: "dyngraph.compact_ms", Unit: "ms", Better: "lower", Layer: "dyngraph", Moves: "service.submit_result_p90_ms"},
	{Name: "dyngraph.compactions", Unit: "count", Better: "lower", Layer: "dyngraph", Moves: "service.submit_result_p90_ms"},
	{Name: "dyngraph.ingest_batch_p50_ms", Unit: "ms", Better: "lower", Layer: "dyngraph", Moves: "wait_ms on serve_mixed (a job queued behind an ingest)"},

	{Name: "graph.gen_s", Unit: "s", Better: "lower", Layer: "graph", Moves: "setup_s on every row"},
	{Name: "graph.write_binary_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "graph", Moves: "setup_s on deepwalk_cluster and serve_mixed"},
	{Name: "graph.load_binary_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "graph", Moves: "wait_ms on deepwalk_cluster (slice load); setup_s on serve_mixed"},
	{Name: "graph.fingerprint_ms", Unit: "ms", Better: "lower", Layer: "graph", Moves: "setup_s on serve_mixed"},

	{Name: "obs.observer_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "obs", Moves: none + ": the cheap-enough-to-leave-on rung"},
	{Name: "obs.tracelog_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "obs", Moves: none + ": the cheap-enough-to-leave-on rung"},
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkManifest fails if BENCHMARK.json does not parse, breaks one of the
// contract's limits the driver can check itself, or declares a different
// set of workloads or metrics than the driver emits.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) > 64<<10 {
		return fmt.Errorf("%s is %d bytes, over 64 KiB", path, len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range top {
		got = append(got, k)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("top-level keys %v, want exactly %v", got, want)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		return fmt.Errorf("command has %d strings", len(m.Command))
	}
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	var names []string
	for _, w := range m.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		return fmt.Errorf("manifest workloads %v, driver runs %v", names, workloadNames)
	}
	check := func(kind string, declared []manifestMetric, emitted []metricDef, bounded bool) error {
		if len(declared) != len(emitted) {
			return fmt.Errorf("%s: manifest declares %d metrics, driver emits %d", kind, len(declared), len(emitted))
		}
		byName := map[string]metricDef{}
		for _, e := range emitted {
			byName[e.Name] = e
		}
		for _, d := range declared {
			if err := use(kind+" metric", d.Name); err != nil {
				return err
			}
			e, ok := byName[d.Name]
			if !ok {
				return fmt.Errorf("%s: manifest declares %q, which the driver does not emit", kind, d.Name)
			}
			if !unitRE.MatchString(d.Unit) || d.Unit != e.Unit || d.Better != e.Better {
				return fmt.Errorf("%s %s: manifest says %s/%s, driver says %s/%s", kind, d.Name, d.Unit, d.Better, e.Unit, e.Better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != e.Bound || *d.Bound < 0 || *d.Bound > 0.25):
				return fmt.Errorf("%s %s: bound missing, over 0.25 or different from the driver's %v", kind, d.Name, e.Bound)
			case !bounded && d.Bound != nil:
				return fmt.Errorf("%s %s: per-layer metrics have no bound", kind, d.Name)
			}
		}
		return nil
	}
	if err := check("end_to_end", m.EndToEnd, endToEnd, true); err != nil {
		return err
	}
	if !seen["setup_s"] {
		return fmt.Errorf("end_to_end lacks setup_s")
	}
	return check("per_layer", m.PerLayer, perLayer, false)
}
