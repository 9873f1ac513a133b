package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {99, 50}, {100, 90}, {300, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v := tailPercentile(xs)
		if pct != tc.want {
			t.Errorf("n=%d: highest percentile with ten samples beyond it is %v, want %v", tc.n, pct, tc.want)
		}
		if beyond := float64(tc.n) * (100 - pct) / 100; pct > 50 && beyond < 9.999 {
			t.Errorf("n=%d: only %.1f samples beyond p%v", tc.n, beyond, pct)
		}
		if want := quantile(xs, pct/100); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two samples: %v %v", q1, q3)
	}
}

func TestBest(t *testing.T) {
	// The best repetition is the smallest time and the largest rate, and
	// one sample is itself.
	times := []float64{100, 101, 99, 102, 180, 100, 250, 98, 101, 300, 99, 100}
	rates := make([]float64, len(times))
	for i, ms := range times {
		rates[i] = 1000 / ms
	}
	if best(times, "lower") != 98 || best(rates, "higher") != 1000.0/98 {
		t.Errorf("best: %v %v", best(times, "lower"), best(rates, "higher"))
	}
	if got := best([]float64{7}, "higher"); got != 7 {
		t.Errorf("one sample: %v", got)
	}
}

func TestServeBlocks(t *testing.T) {
	l := &serveLoad{}
	// Results arrive every 100 ms, recorded out of order by two clients.
	for _, i := range []int{1, 0, 3, 2, 5, 4, 6} {
		l.finished = append(l.finished, finishedJob{at: time.Duration(i+1) * 100 * time.Millisecond, ms: float64(10 * (i + 1)), steps: 1000})
	}
	rate, wait := l.blocks(3)
	if len(rate) != 2 || len(wait) != 2 { // the 7th job is left over
		t.Fatalf("%d and %d blocks, want 2", len(rate), len(wait))
	}
	for i, want := range []float64{20, 50} {
		if math.Abs(rate[i]-10000) > 1e-6 || wait[i] != want {
			t.Errorf("block %d: %v steps/s, median wait %v; want 10000 and %v", i, rate[i], wait[i], want)
		}
	}
	if rate, wait := l.blocks(100); len(rate) != 1 || wait[0] != 40 { // too few for one block: all of them are one
		t.Errorf("short run: %v %v", rate, wait)
	}
	if rate, _ := (&serveLoad{}).blocks(3); len(rate) != 0 {
		t.Errorf("no jobs gave %d blocks", len(rate))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 40}, // fills its parent
	}
	want := []int64{100 - 50 - 10, 0, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Errorf("well-nested spans rejected: %v", err)
	}
	_, ms := composition(spans)
	if ms["/root"] != 40e-6 {
		t.Errorf("composition of root = %v ms, want 4e-05", ms["/root"])
	}
	spans[3].End = 120
	if err := checkNesting(spans); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
	spans[3].End = -1
	if err := checkNesting(spans); err == nil {
		t.Error("an unclosed span was accepted")
	}
}

func TestRecorderClampsReportedSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(0, "t", "l", "root")
	rec.add(root, "t", "l", "early", -50, rec.now())
	rec.end(root)
	if err := checkNesting(rec.spans); err != nil {
		t.Fatal(err)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(0, "t", "l", "x")) // an untraced run records nothing
}

func TestVerdict(t *testing.T) {
	m := func(median, spread float64) *suiteMetric { return &suiteMetric{Median: median, Spread: spread} }
	for _, tc := range []struct {
		better       string
		base, change *suiteMetric
		want         string
	}{
		{"higher", m(100, 0.02), m(101, 0.02), "same"},
		{"higher", m(100, 0.02), m(85, 0.02), "worse"},
		{"higher", m(100, 0.02), m(115, 0.02), "better"},
		{"lower", m(100, 0.02), m(115, 0.02), "worse"},
		{"lower", m(100, 0.02), m(85, 0.02), "better"},
		{"lower", m(100, 0.02), m(109, 0.02), "same"},
		{"lower", m(100, 0.2), m(150, 0.02), "unresolved"},
		{"lower", m(100, 0.02), m(150, 0.2), "unresolved"},
	} {
		if got := verdict(tc.better, 0.10, tc.base, tc.change); got != tc.want {
			t.Errorf("%s is better, %v -> %v: %s, want %s", tc.better, tc.base.Median, tc.change.Median, got, tc.want)
		}
	}
}

func TestManifestDeclaresWhatTheDriverEmits(t *testing.T) {
	if err := checkManifest(filepath.Join("..", "..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for what, edit := range map[string][2]string{
		"a renamed metric":  {`"core.walk_ms"`, `"core.walk_millis"`},
		"a duplicated name": {`"core.walk_ms"`, `"core.setup_ms"`},
		"a malformed name":  {`"core.walk_ms"`, `"core walk ms"`},
		"an extra key":      {`"run_seconds"`, `"extra": 1, "run_seconds"`},
	} {
		if err := os.WriteFile(bad, []byte(strings.Replace(string(raw), edit[0], edit[1], 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkManifest(bad); err == nil {
			t.Errorf("a manifest with %s was accepted", what)
		}
	}
}

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

// kkperfBinary builds the driver once for the tests that run it as a
// program, the way BENCHMARK.json's command does.
func kkperfBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "kkperf-test-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "kkperf")
		if out, err := exec.Command("go", "build", "-o", builtBin, ".").CombinedOutput(); err != nil {
			buildErr = &exec.Error{Name: string(out), Err: err}
		}
	})
	if buildErr != nil {
		t.Fatalf("build kkperf: %v", buildErr)
	}
	return builtBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(filepath.Dir(builtBin))
	}
	os.Exit(code)
}

func runTiny(t *testing.T, workload, trace string) resultLine {
	t.Helper()
	cmd := exec.Command(kkperfBinary(t), "--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace, "-scale", "tiny")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", workload, trace, line.Correct, line.Failed, line.Attempted, out)
	}
	return line
}

func wantNames(t *testing.T, what string, line resultLine, declared []metricDef) {
	t.Helper()
	var got, want []string
	for name, v := range line.Metrics {
		got = append(got, name)
		for _, d := range declared {
			if d.Name == name && d.Unit != v.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", what, name, v.Unit, d.Unit)
			}
		}
	}
	for _, d := range declared {
		want = append(want, d.Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s emits %v, the manifest declares %v", what, got, want)
	}
}

// TestTinyWorkloads runs all four workloads at tiny scale as real
// programs, including a coordinator with two rank processes and a kkserve
// child, and one traced run with its failover and trace file.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	for _, w := range workloadNames {
		line := runTiny(t, w, "0")
		wantNames(t, w, line, endToEnd)
		for name, v := range line.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w, name, v.Value)
			}
		}
	}
	line := runTiny(t, wNode2vecInproc, "1")
	wantNames(t, "traced run", line, perLayer)
	if q := line.Metrics["core.queries_per_step"].Value; !(q > 0) {
		t.Errorf("node2vec queries per step = %v, want > 0", q)
	}
	raw, err := os.ReadFile(filepath.Join("..", "out", "trace-"+wNode2vecInproc+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if err := checkNesting(tf.Spans); err != nil || len(tf.Spans) < 100 {
		t.Errorf("trace file: %d spans, nesting: %v", len(tf.Spans), err)
	}
}

// TestRefusesBareDirectory: in a directory that holds only BENCHMARK.json
// and the benchmark's own files there is no program to measure, and the
// command must fail without printing a result.
func TestRefusesBareDirectory(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("cp", "-r", filepath.Join("..", "..", "BENCHMARK.json"), filepath.Join("..", "..", "benchmarks"), dir).CombinedOutput(); err != nil {
		t.Fatalf("copy: %v\n%s", err, out)
	}
	os.RemoveAll(filepath.Join(dir, "benchmarks", "out"))
	cmd := exec.Command("bash", "benchmarks/run.sh", "--workload", wDeepwalkInproc, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("the command succeeded without a repository:\n%s", out)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("the command printed a result without a repository:\n%s", out)
	}
}
