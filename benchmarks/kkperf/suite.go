package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Scale       string                    `json:"scale"`
	Seed        uint64                    `json:"seed"`
	Seconds     float64                   `json:"seconds"`
	Runs        int                       `json:"runs"`
	Environment []string                  `json:"environment"`
	Workloads   map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Notes     []string                `json:"notes"` // graph sizes and the like, from the first run
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]*suiteMetric `json:"end_to_end"`
	PerLayer  map[string]float64      `json:"per_layer"` // from the one traced run
}

type suiteMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run, in seed order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

// runSuite runs every workload `runs` times untraced (seeds seed, seed+1,
// ...) and once traced, each in a fresh process of this same binary, and
// writes the medians and spreads to path.
func runSuite(repo, scale string, seed uint64, seconds float64, runs int, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{Scale: scale, Seed: seed, Seconds: seconds, Runs: runs, Environment: environment(repo), Workloads: map[string]*suiteWorkload{}}
	anyFailed := false
	for _, w := range workloadNames {
		sw := &suiteWorkload{EndToEnd: map[string]*suiteMetric{}, PerLayer: map[string]float64{}}
		file.Workloads[w] = sw
		for i := 0; i <= runs; i++ {
			traced, traceArg := i == runs, "0"
			if traced {
				traceArg = "1"
			}
			args := []string{"-root", repo, "-scale", scale, "-workload", w, "-seed", strconv.FormatUint(seed+uint64(i%runs), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg}
			start := time.Now()
			line, notes, err := runSelf(self, args)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
			if i == 0 {
				sw.Notes = notes
			}
			fmt.Printf("%s run %d/%d traced=%v: %.1f s, failed %d of %d\n", w, i+1, runs+1, traced, time.Since(start).Seconds(), line.Failed, line.Attempted)
			sw.Attempted += line.Attempted
			sw.Failed += line.Failed
			for name, v := range line.Metrics {
				if traced {
					sw.PerLayer[name] = v.Value
					continue
				}
				if sw.EndToEnd[name] == nil {
					sw.EndToEnd[name] = &suiteMetric{Unit: v.Unit}
				}
				sw.EndToEnd[name].Values = append(sw.EndToEnd[name].Values, v.Value)
			}
		}
		for _, m := range sw.EndToEnd {
			m.Median = median(m.Values)
			m.Q1, m.Q3 = quartiles(m.Values)
			m.Spread = spread(m.Values)
		}
		anyFailed = anyFailed || sw.Failed > 0
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	printSuite(os.Stdout, &file)
	if anyFailed {
		return fmt.Errorf("some operations failed; see above")
	}
	return nil
}

// runSelf runs one kkperf process and parses the last line it printed,
// and returns the indented note lines above it. A run with failed
// operations exits 1 but still prints its result.
func runSelf(self string, args []string) (*resultLine, []string, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); err != nil && !(ok && ee.ExitCode() == 1) {
		return nil, nil, fmt.Errorf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, nil, fmt.Errorf("last line is not a result: %w\n%s", err, out)
	}
	if line.Failed > 0 {
		fmt.Print(string(out))
	}
	var notes []string
	for _, l := range lines {
		if note, ok := strings.CutPrefix(l, "  "); ok && !strings.HasPrefix(note, " ") && !strings.HasPrefix(note, "FAILED") {
			notes = append(notes, note)
		}
	}
	return &line, notes, nil
}

func printSuite(w io.Writer, f *suiteFile) {
	for _, name := range workloadNames {
		sw := f.Workloads[name]
		if sw == nil {
			continue
		}
		fmt.Fprintf(w, "%s: failed %d of %d attempted\n", name, sw.Failed, sw.Attempted)
		for _, d := range endToEnd {
			if m := sw.EndToEnd[d.Name]; m != nil {
				fmt.Fprintf(w, "  %-14s median %12.6g %-5s n=%d q1 %.6g q3 %.6g spread %.1f%% (bound %.0f%%)\n",
					d.Name, m.Median, m.Unit, len(m.Values), m.Q1, m.Q3, 100*m.Spread, 100*d.Bound)
			}
		}
	}
}

func readSuite(path string) (*suiteFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // only read
	var s suiteFile
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one end-to-end metric of one workload: base against
// change, under the metric's bound. A spread wider than the bound on
// either side means the runs cannot resolve a change of that size.
func verdict(better string, bound float64, base, change *suiteMetric) string {
	if base.Spread > bound || change.Spread > bound {
		return "unresolved"
	}
	gain := (change.Median - base.Median) / base.Median // share of the base
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with their quartiles, the ratio with its base, and the verdict. It
// reports whether anything got worse or any operation failed.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	base, err := readSuite(basePath)
	if err != nil {
		return false, err
	}
	change, err := readSuite(changePath)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "base %s, change %s; ratio = change median / base median\n", basePath, changePath)
	for _, name := range workloadNames {
		b, c := base.Workloads[name], change.Workloads[name]
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from one file", name)
		}
		fmt.Fprintf(w, "%s: failed ops base %d of %d, change %d of %d\n", name, b.Failed, b.Attempted, c.Failed, c.Attempted)
		bad = bad || c.Failed > 0
		for _, d := range endToEnd {
			bm, cm := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			if bm == nil || cm == nil {
				return false, fmt.Errorf("%s %s is missing from one file", name, d.Name)
			}
			v := verdict(d.Better, d.Bound, bm, cm)
			bad = bad || v == "worse"
			fmt.Fprintf(w, "  %-12s %-6s base %11.6g [%.6g, %.6g]  change %11.6g [%.6g, %.6g]  ratio %.3f of %.6g  bound %.0f%%  %s\n",
				d.Name, d.Better, bm.Median, bm.Q1, bm.Q3, cm.Median, cm.Q1, cm.Q3, cm.Median/bm.Median, bm.Median, 100*d.Bound, v)
		}
		for _, k := range []string{"sampling.trials_per_step", "sampling.edges_per_step", "transport.bytes_per_step", "core.supersteps", "checkpoint.count"} {
			if b.PerLayer[k] != c.PerLayer[k] {
				fmt.Fprintf(w, "  exact count %s differs: base %v, change %v\n", k, b.PerLayer[k], c.PerLayer[k])
			}
		}
	}
	return bad, nil
}
