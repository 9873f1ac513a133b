package coord

// Exec-based end-to-end test of the cluster control plane: real kkcoord
// and kkrank processes over localhost TCP, one rank SIGKILLed mid-run and
// replaced, and the recovered cluster's merged dump compared byte-for-byte
// against an uninterrupted single-process kkwalk run.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries compiles the cluster binaries once into dir.
func buildBinaries(t *testing.T, dir string, names ...string) map[string]string {
	t.Helper()
	bins := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "knightking/cmd/"+name)
		cmd.Dir = moduleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// writeE2EGraph writes a deterministic mildly skewed graph: vertex v links
// to a handful of pseudo-random targets, plus a ring edge keeping it
// connected. Pure arithmetic — no RNG — so the file is stable across runs.
func writeE2EGraph(t *testing.T, path string, n int) {
	t.Helper()
	var b strings.Builder
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "%d %d\n", v, (v+1)%n)
		deg := 2 + (v*7+3)%6
		for k := 0; k < deg; k++ {
			u := (v*31 + k*197 + 13) % n
			if u != v {
				fmt.Fprintf(&b, "%d %d\n", v, u)
			}
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// mergeRankDumps reassembles the per-rank "<walkerID> v1 v2 ..." dumps
// into kkwalk's walker-ID-ordered, ID-less dump format.
func mergeRankDumps(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "walks-rank*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no rank dumps under %s", dir)
	}
	type walk struct {
		id   int
		path string
	}
	var walks []walk
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if line == "" {
				continue
			}
			id, rest, found := strings.Cut(line, " ")
			n, err := strconv.Atoi(id)
			if err != nil || !found {
				t.Fatalf("bad dump line in %s: %q", f, line)
			}
			walks = append(walks, walk{id: n, path: rest})
		}
	}
	sort.Slice(walks, func(i, j int) bool { return walks[i].id < walks[j].id })
	var b strings.Builder
	for i, w := range walks {
		if i > 0 && walks[i-1].id == w.id {
			t.Fatalf("walker %d dumped by two ranks", w.id)
		}
		b.WriteString(w.path)
		b.WriteByte('\n')
	}
	return b.String()
}

type statuszDoc struct {
	State   string `json:"state"`
	Attempt int    `json:"attempt"`
	Ranks   []struct {
		Superstep int `json:"superstep"`
	} `json:"ranks"`
}

func getStatusz(adminAddr string) (statuszDoc, error) {
	var doc statuszDoc
	resp, err := http.Get("http://" + adminAddr + "/statusz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

func startRank(t *testing.T, bin, coordAddr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-coord", coordAddr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start kkrank: %v", err)
	}
	return cmd
}

func TestClusterKillRankE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "kkcoord", "kkrank", "kkwalk")

	graph := filepath.Join(dir, "g.txt")
	writeE2EGraph(t, graph, 600)
	const (
		ranks   = 3
		walkers = 2000
		length  = 600
		seed    = 7
	)

	// Reference: uninterrupted single-process run, same partition count.
	refDump := filepath.Join(dir, "ref.txt")
	ref := exec.Command(bins["kkwalk"],
		"-graph", graph, "-alg", "deepwalk", "-length", strconv.Itoa(length),
		"-walkers", strconv.Itoa(walkers), "-seed", strconv.Itoa(seed),
		"-nodes", strconv.Itoa(ranks), "-dump", refDump, "-quiet")
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference kkwalk: %v\n%s", err, out)
	}

	// Cluster run with checkpointing, killed and recovered mid-flight.
	dumpDir := filepath.Join(dir, "dumps")
	coordCmd := exec.Command(bins["kkcoord"],
		"-graph", graph, "-alg", "deepwalk", "-length", strconv.Itoa(length),
		"-walkers", strconv.Itoa(walkers), "-seed", strconv.Itoa(seed),
		"-ranks", strconv.Itoa(ranks),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-checkpoint-every", "16",
		"-dump-dir", dumpDir,
		"-admin-addr", "127.0.0.1:0",
		"-addr-file", filepath.Join(dir, "coord.addr"),
		"-gather-timeout", "60s", "-net-timeout", "10s",
		"-json")
	// Stdout/stderr go to files so the test can poll the log while the
	// process is still writing it (a shared buffer would race).
	outPath := filepath.Join(dir, "coord.out")
	logPath := filepath.Join(dir, "coord.log")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	coordCmd.Stdout = outFile
	coordCmd.Stderr = logFile
	if err := coordCmd.Start(); err != nil {
		t.Fatalf("start kkcoord: %v", err)
	}
	_ = outFile.Close() // the child holds its own descriptor
	_ = logFile.Close()
	coordLog := func() string {
		b, _ := os.ReadFile(logPath)
		return string(b)
	}
	// coordDone closes when the process exits, so it can be selected on
	// from several places; the exit error lands in waitErr first.
	var waitErr error
	coordDone := make(chan struct{})
	go func() { waitErr = coordCmd.Wait(); close(coordDone) }()
	defer func() {
		_ = coordCmd.Process.Kill()
		<-coordDone
		if t.Failed() {
			t.Logf("kkcoord log:\n%s", coordLog())
		}
	}()

	// The control address file appears once the listener is bound; the
	// admin address has to be scraped from the log (it binds port 0).
	var coordAddr string
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(filepath.Join(dir, "coord.addr")); err == nil && len(b) > 0 {
			coordAddr = string(b)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if coordAddr == "" {
		t.Fatalf("coordinator never wrote its address; log:\n%s", coordLog())
	}
	var adminAddr string
	for time.Now().Before(deadline) {
		if _, rest, ok := strings.Cut(coordLog(), "admin server on http://"); ok {
			adminAddr = strings.Fields(rest)[0]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if adminAddr == "" {
		t.Fatalf("admin address never logged; log:\n%s", coordLog())
	}

	workers := make([]*exec.Cmd, ranks)
	for i := range workers {
		workers[i] = startRank(t, bins["kkrank"], coordAddr)
	}
	defer func() {
		for _, w := range workers {
			if w != nil && w.Process != nil {
				_ = w.Process.Kill()
				_ = w.Wait()
			}
		}
	}()

	// Wait until the run is past its first committed checkpoint (16) so the
	// failover genuinely resumes rather than restarting from scratch.
	progressed := false
	for time.Now().Before(deadline) {
		doc, err := getStatusz(adminAddr)
		if err == nil && doc.State == "running" {
			for _, r := range doc.Ranks {
				if r.Superstep >= 20 {
					progressed = true
					break
				}
			}
		}
		if progressed {
			break
		}
		select {
		case <-coordDone:
			t.Fatalf("coordinator exited before the kill (%v); log:\n%s", waitErr, coordLog())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !progressed {
		t.Fatalf("cluster never reached superstep 20; log:\n%s", coordLog())
	}

	// SIGKILL one rank mid-run, then offer a replacement process.
	killedAt := time.Now()
	if err := workers[1].Process.Kill(); err != nil {
		t.Fatalf("kill rank: %v", err)
	}
	_ = workers[1].Wait()
	workers[1] = nil
	replacement := startRank(t, bins["kkrank"], coordAddr)
	workers = append(workers, replacement)

	// Acceptance: detect → re-handout → resume in under 10 seconds.
	recovered := false
	for time.Now().Before(killedAt.Add(10 * time.Second)) {
		doc, err := getStatusz(adminAddr)
		if err == nil && doc.Attempt >= 2 && doc.State == "running" {
			recovered = true
			break
		}
		select {
		case <-coordDone:
			// Already finished: recovery certainly happened within bounds if
			// the summary shows a second attempt (checked below).
			recovered = true
		default:
		}
		if recovered {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("no recovery within 10s of the kill; log:\n%s", coordLog())
	}
	t.Logf("recovered (attempt 2 running) %v after SIGKILL", time.Since(killedAt))

	select {
	case <-coordDone:
		if waitErr != nil {
			t.Fatalf("kkcoord failed: %v; log:\n%s", waitErr, coordLog())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("kkcoord never finished; log:\n%s", coordLog())
	}

	outBytes, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(outBytes, &sum); err != nil {
		t.Fatalf("parse summary %q: %v", outBytes, err)
	}
	if sum.Failovers < 1 || sum.Attempts < 2 {
		t.Fatalf("kill not observed: %+v", sum)
	}
	t.Logf("summary: %+v", sum)

	// The headline: the recovered cluster's merged dump is byte-identical
	// to the uninterrupted single-process run.
	merged := mergeRankDumps(t, dumpDir)
	refBytes, err := os.ReadFile(refDump)
	if err != nil {
		t.Fatal(err)
	}
	if merged != string(refBytes) {
		t.Fatalf("recovered cluster dump differs from uninterrupted reference (merged %d bytes, ref %d bytes)",
			len(merged), len(refBytes))
	}
}

// TestEnginePanicFailsJobE2E: a biased walk on a graph whose vertex 0 has
// only zero-weight out-edges panics in the engine's sampler set-up on the
// rank. The rank must report that as a failed attempt (not die with a
// goroutine dump and leave the coordinator regathering), and once the
// attempts run out kkcoord must fail naming the cause.
func TestEnginePanicFailsJobE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "kkcoord", "kkrank")
	graph := filepath.Join(dir, "zero.txt")
	if err := os.WriteFile(graph, []byte("0 1 0\n0 2 0\n1 2 1\n2 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "coord.addr")
	coordCmd := exec.Command(bins["kkcoord"], "-graph", graph, "-alg", "deepwalk", "-biased",
		"-ranks", "1", "-max-attempts", "2", "-gather-timeout", "30s", "-addr-file", addrFile)
	var coordErr, rankErr strings.Builder
	coordCmd.Stderr = &coordErr
	if err := coordCmd.Start(); err != nil {
		t.Fatalf("start kkcoord: %v", err)
	}
	coordDone := make(chan error, 1)
	go func() { coordDone <- coordCmd.Wait() }()
	defer func() {
		_ = coordCmd.Process.Kill()
	}()

	var coordAddr string
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline) && coordAddr == ""; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			coordAddr = string(b)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if coordAddr == "" {
		t.Fatal("coordinator never wrote its address")
	}
	rank := exec.Command(bins["kkrank"], "-coord", coordAddr)
	rank.Stderr = &rankErr
	if err := rank.Start(); err != nil {
		t.Fatalf("start kkrank: %v", err)
	}
	rankDone := make(chan struct{})
	go func() { _ = rank.Wait(); close(rankDone) }()
	defer func() {
		_ = rank.Process.Kill()
		<-rankDone
	}()

	select {
	case err := <-coordDone:
		if err == nil {
			t.Fatalf("kkcoord succeeded on a zero-weight biased walk; log:\n%s", coordErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("kkcoord still running after 30s")
	}
	lines := strings.Split(strings.TrimSpace(coordErr.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "weights sum to 0") {
		t.Fatalf("kkcoord's last line %q does not name the cause; log:\n%s", last, coordErr.String())
	}
	select {
	case <-rankDone:
	case <-time.After(10 * time.Second):
		t.Fatal("kkrank still running 10s after the job failed")
	}
	if strings.Contains(rankErr.String(), "goroutine") {
		t.Fatalf("kkrank died with a goroutine dump:\n%s", rankErr.String())
	}
}

// TestKKWalkFlagPairing: kkwalk's static multi-process flags are retired
// in favour of kkcoord/kkrank, so a launch script still passing -rank or
// -peers must fail fast with a usage error instead of silently running a
// single-process walk.
func TestKKWalkFlagPairing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "kkwalk")
	graph := filepath.Join(dir, "g.txt")
	writeE2EGraph(t, graph, 20)

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"rank without peers", []string{"-graph", graph, "-rank", "0"}, "flag provided but not defined: -rank"},
		{"peers without rank", []string{"-graph", graph, "-peers", "127.0.0.1:1,127.0.0.1:2"}, "flag provided but not defined: -peers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bins["kkwalk"], tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("want failure, got success:\n%s", out)
			}
			var ee *exec.ExitError
			if ok := errorsAs(err, &ee); !ok || ee.ExitCode() == 0 || ee.ProcessState.Sys().(syscall.WaitStatus).Signaled() {
				t.Fatalf("want clean nonzero exit, got %v", err)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("want %q in output, got:\n%s", tc.want, out)
			}
		})
	}
}

// errorsAs avoids importing errors just for one assertion helper.
func errorsAs(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}
