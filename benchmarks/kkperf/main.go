// Command kkperf is the repository's benchmark: one driver for the walk
// engine, the TCP cluster and the kkserve walk service.
//
//	kkperf --workload W --seed N --seconds S --trace 0|1   one run; the last line of
//	                                                       standard output is the result
//	kkperf -check-manifest                                 BENCHMARK.json against what is emitted
//	kkperf -suite -runs K -out FILE                        K runs of every workload plus a traced one
//	kkperf -compare A.json B.json                          verdict per workload and metric
//
// See ../README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, "|"))
		seed        = flag.Uint64("seed", 1, "workload seed: generators, walk seeds and the request sequence derive from it")
		seconds     = flag.Float64("seconds", 25, "how long one run measures")
		trace       = flag.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics")
		scale       = flag.String("scale", "full", "input sizes: full|tiny")
		root        = flag.String("root", "", "repository root (default: two directories above this package)")
		checkOnly   = flag.Bool("check-manifest", false, "validate BENCHMARK.json against the metrics the driver emits")
		suite       = flag.Bool("suite", false, "run every workload -runs times plus one traced run and write -out")
		runs        = flag.Int("runs", 10, "untraced runs per workload in -suite")
		out         = flag.String("out", "", "-suite: output file")
		compareMode = flag.Bool("compare", false, "compare two -suite files given as arguments")
	)
	flag.Parse()
	repo, err := repoRoot(*root)
	if err != nil {
		fatal(err)
	}
	switch {
	case *checkOnly:
		if err := checkManifest(filepath.Join(repo, "BENCHMARK.json")); err != nil {
			fatal(err)
		}
		fmt.Printf("BENCHMARK.json declares what kkperf emits: %d workloads, %d end-to-end and %d per-layer metrics\n",
			len(workloadNames), len(endToEnd), len(perLayer))
	case *compareMode:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *suite:
		if *out == "" {
			fatal(fmt.Errorf("-suite wants -out FILE"))
		}
		if err := runSuite(repo, *scale, *seed, *seconds, *runs, *out); err != nil {
			fatal(err)
		}
	default:
		sz, ok := scales[*scale]
		if !ok {
			fatal(fmt.Errorf("unknown -scale %q", *scale))
		}
		os.Exit(runOnce(repo, *scale, sz, *workload, *seed, *seconds, *trace == 1))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kkperf:", err)
	os.Exit(2)
}

// repoRoot finds the repository: the given directory, or the one that
// holds benchmarks/ when run from there, or the working directory.
func repoRoot(flagValue string) (string, error) {
	candidates := []string{flagValue, ".", "..", "../.."}
	for _, c := range candidates {
		if c == "" {
			continue
		}
		abs, err := filepath.Abs(c)
		if err != nil {
			return "", err
		}
		if _, err := os.Stat(filepath.Join(abs, "cmd", "kkserve")); err == nil {
			if _, err := os.Stat(filepath.Join(abs, "benchmarks", "kkperf")); err == nil {
				return abs, nil
			}
		}
	}
	return "", fmt.Errorf("cannot find the repository root (cmd/kkserve and benchmarks/kkperf); pass -root")
}

// resultLine is the last line of standard output of one run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce is the contract's entry point: one workload, one seed, traced or
// not. It returns the exit status.
func runOnce(repo, scale string, sz sizes, workload string, seed uint64, seconds float64, traced bool) int {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "kkperf: unknown -workload %q (want one of %s)\n", workload, strings.Join(workloadNames, ", "))
		return 2
	}
	build := filepath.Join(repo, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "kkperf:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kkperf:", err)
		return 2
	}
	// Children die with the run whatever ends it: a deadline well inside
	// the time one run may take, a signal, or a normal return.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	e := &env{ctx: ctx, binDir: filepath.Join(build, "bin"), tmp: tmp, outDir: filepath.Join(repo, "benchmarks", "out"),
		ps: &procs{dir: tmp}, sz: sz, seed: seed}
	cleanup := func() {
		e.ps.stopAll()
		cancel()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	finished := make(chan struct{})
	defer close(finished)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { // a signal or the deadline ends the run, not just its children
		select {
		case <-finished:
			return
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "kkperf: run cut short by", s)
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "kkperf: run cut short:", ctx.Err())
		}
		cleanup()
		os.Exit(3)
	}()

	if traced || workload == wDeepwalkCluster || workload == wServeMixed {
		if err := buildPrograms(repo, e.binDir, "kkcoord", "kkrank", "kkserve"); err != nil {
			fmt.Fprintln(os.Stderr, "kkperf:", err)
			return 2
		}
	}

	stolen := stealWatch()
	var o *outcome
	var declared []metricDef
	switch {
	case traced:
		o, declared = runTraced(e, workload, seconds), perLayer
	case workload == wDeepwalkInproc:
		o, declared = runInproc(e, seconds, deepwalkCase), endToEnd
	case workload == wNode2vecInproc:
		o, declared = runInproc(e, seconds, node2vecCase), endToEnd
	case workload == wDeepwalkCluster:
		o, declared = runCluster(e, seconds), endToEnd
	case workload == wServeMixed:
		o, declared = runServe(e, seconds), endToEnd
	}

	// A metric that was not measured is a failed operation: the result
	// line must carry every declared name and nothing else.
	line := resultLine{Attempted: o.attempted, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v, ok := o.metrics[d.Name]
		if !ok || v.value != v.value { // missing or NaN
			o.fail("metric %s was not measured", d.Name)
			v = measured{}
		}
		line.Metrics[d.Name] = metricValue{Value: v.value, Unit: d.Unit}
	}
	for name := range o.metrics {
		if _, ok := line.Metrics[name]; !ok {
			o.fail("metric %s is emitted but not declared", name)
		}
	}
	line.Failed = o.failed
	line.Correct = o.failed == 0
	if line.Attempted < 1 {
		line.Attempted = 1
	}

	fmt.Printf("kkperf %s  seed %d  scale %s  trace %v  measured for %.0f s\n", workload, seed, scale, traced, seconds)
	if share, ok := stolen(); ok {
		o.note("the host took %.1f %% of the CPU time away while this ran (steal in /proc/stat)", 100*share)
	}
	for _, n := range append(environment(repo), o.notes...) {
		fmt.Println("  " + n)
	}
	for _, d := range declared {
		v := o.metrics[d.Name]
		fmt.Printf("%-42s %14.6g %-6s", d.Name, v.value, d.Unit)
		if len(v.samples) > 1 {
			fmt.Printf("  n=%d best=%.6g q1=%.6g median=%.6g q3=%.6g", len(v.samples), best(v.samples, d.Better),
				quantile(v.samples, 0.25), median(v.samples), quantile(v.samples, 0.75))
		}
		fmt.Println()
	}
	fmt.Printf("failed_ops: %d of %d attempted\n", line.Failed, line.Attempted)
	for _, p := range o.problems {
		fmt.Println("  FAILED:", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kkperf:", err)
		return 2
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// stealWatch reads the guest's CPU times now and returns a function that
// says what share of them the hypervisor has taken away since ("steal", the
// 8th figure of the cpu line of /proc/stat). A run with more than a few
// per cent was measured in bad weather; see README, "Calibration".
func stealWatch() func() (share float64, ok bool) {
	read := func() (steal, total float64, ok bool) {
		b, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0, false
		}
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			return 0, 0, false
		}
		for i, field := range f[1:9] { // user nice system idle iowait irq softirq steal
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return 0, 0, false
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total, true
	}
	s0, t0, ok0 := read()
	return func() (float64, bool) {
		s1, t1, ok1 := read()
		if !ok0 || !ok1 || t1 <= t0 {
			return 0, false
		}
		return (s1 - s0) / (t1 - t0), true
	}
}

// environment records what the numbers depend on besides the code.
func environment(repo string) []string {
	notes := []string{fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)}
	var caches []string
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // absent off Linux
	sort.Strings(dirs)
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f)) // a missing file prints as empty
			return strings.TrimSpace(string(b))
		}
		caches = append(caches, fmt.Sprintf("L%s %s %s", read("level"), read("type"), read("size")))
	}
	if len(caches) > 0 {
		notes = append(notes, "caches of cpu0: "+strings.Join(caches, ", "))
	}
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repo
	if b, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return append(notes, "commit "+commit)
}
