package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the driver around a call into a
// layer. Spans of one run or request share Trace; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs pay nothing for it.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span and returns its ID; end closes it.
func (r *recorder) begin(parent int, trace, layer, name string) int {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Layer: layer, Start: start, End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// add records a span whose interval is already known (superstep phases
// reported by the engine after the fact), clamped into its parent.
func (r *recorder) add(parent int, trace, layer, name string, start, end int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent > 0 {
		if p := r.spans[parent-1]; start < p.Start {
			start = p.Start
		}
	}
	if end < start {
		end = start
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Layer: layer, Start: start, End: end})
	return len(r.spans)
}

// do runs fn inside a span.
func (r *recorder) do(parent int, trace, layer, name string, fn func(id int) error) error {
	id := r.begin(parent, trace, layer, name)
	defer r.end(id)
	return fn(id)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (overlapping children are merged first, so concurrent
// children are not subtracted twice). Spans never closed count as empty.
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent > 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].s < kids[b].s })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, k := range kids {
			if k.s < s.Start {
				k.s = s.Start
			}
			if k.e > s.End {
				k.e = s.End
			}
			if k.e <= k.s {
				continue
			}
			if curE < 0 || k.s > curE {
				if curE >= 0 {
					covered += curE - curS
				}
				curS, curE = k.s, k.e
			} else if k.e > curE {
				curE = k.e
			}
		}
		if curE >= 0 {
			covered += curE - curS
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// checkNesting reports the first span that is not closed, not inside its
// parent, or has negative self time.
func checkNesting(spans []span) error {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never closed", s.ID, s.Name)
		}
		if s.Parent > 0 {
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %q [%d,%d] leaves its parent %d %q [%d,%d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d %q has negative self time", s.ID, s.Name)
		}
	}
	return nil
}

// composition sums self time by "layer/name", the printed stanza's rows.
func composition(spans []span) (labels []string, ms map[string]float64) {
	ms = make(map[string]float64)
	for i, d := range selfTimes(spans) {
		ms[spans[i].Layer+"/"+spans[i].Name] += float64(d) / 1e6
	}
	for l := range ms {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(a, b int) bool { return ms[labels[a]] > ms[labels[b]] })
	return labels, ms
}

func printComposition(w io.Writer, workload string, spans []span) {
	labels, ms := composition(spans)
	total := 0.0
	for _, l := range labels {
		total += ms[l]
	}
	fmt.Fprintf(w, "Time composition of the traced run of %s (self time = span - children), total %.3f ms:\n", workload, total)
	for _, l := range labels {
		fmt.Fprintf(w, "  %-40s : %.3f ms\n", l, ms[l])
	}
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
