package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/walk_digests.golden from the current build.
var update = flag.Bool("update", false, "rewrite testdata/walk_digests.golden instead of comparing against it")

// asKKWalk makes the test binary run main() with the arguments after "--"
// when re-executed by runKKWalk, so the tests below see kkwalk's real exit
// status and stderr.
const asKKWalk = "KKWALK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asKKWalk) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"kkwalk"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runKKWalk runs kkwalk with args and returns its exit code and stderr.
func runKKWalk(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), asKKWalk+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("run kkwalk: %v", err)
	return 0, ""
}

// writeRing writes a 10-vertex bidirectional ring as a text edge list.
func writeRing(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for v := 0; v < 10; v++ {
		fmt.Fprintf(&b, "%d %d\n%d %d\n", v, (v+1)%10, (v+1)%10, v)
	}
	path := filepath.Join(t.TempDir(), "ring.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInvalidParametersExitCleanly: every out-of-range parameter is a
// one-line "kkwalk: ..." error with exit status 1 — never a Go panic, and
// never a run that quietly substitutes another value.
func TestInvalidParametersExitCleanly(t *testing.T) {
	g := writeRing(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "-1"}, "must be non-negative"},
		{[]string{"-workers", "-2"}, "must be non-negative"},
		{[]string{"-walkers", "-5"}, "must be non-negative"},
		{[]string{"-length", "-3"}, "length -3"},
		{[]string{"-alg", "ppr", "-pt", "1.5"}, "pt 1.5"},
		{[]string{"-alg", "ppr", "-pt", "-0.1"}, "pt -0.1"},
		{[]string{"-alg", "rwr", "-restart", "1"}, "restart 1"},
		{[]string{"-alg", "node2vec", "-p", "-1"}, "p=-1"},
		{[]string{"-alg", "node2vec", "-q", "-0.5"}, "q=-0.5"},
		{[]string{"-alg", "metapath", "-schemes", "0,x"}, `"x"`},
		{[]string{"-alg", "metapath", "-schemes", " ; "}, "no metapath schemes"},
		{[]string{"-alg", "pagerank"}, `"pagerank"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stderr := runKKWalk(t, append([]string{"-graph", g, "-quiet"}, tc.args...)...)
			if code != 1 {
				t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
			}
			line := strings.TrimSuffix(stderr, "\n")
			if strings.Contains(line, "\n") || !strings.HasPrefix(line, "kkwalk: ") || !strings.Contains(line, tc.want) {
				t.Fatalf("stderr %q, want one \"kkwalk: ...%s...\" line", stderr, tc.want)
			}
		})
	}
}

// TestZeroParametersTakeAlgorithmDefaults: a zero parameter flag means
// "the algorithm's default", so these run instead of failing.
func TestZeroParametersTakeAlgorithmDefaults(t *testing.T) {
	g := writeRing(t)
	for _, args := range [][]string{
		{"-length", "0"},
		{"-alg", "rwr", "-length", "0"},
		{"-alg", "ppr", "-pt", "0"},
		{"-alg", "node2vec", "-p", "0", "-q", "0", "-length", "5"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if code, stderr := runKKWalk(t, append([]string{"-graph", g, "-quiet", "-nodes", "2"}, args...)...); code != 0 {
				t.Fatalf("exit status %d; stderr:\n%s", code, stderr)
			}
		})
	}
}

// writeTypedGraph writes a 200-vertex weighted graph with three edge types
// as a text edge list. Pure arithmetic, so the file never changes: vertex
// v links to its ring successor plus three spread-out targets, with
// weights in [1, 5] and types 0..2.
func writeTypedGraph(t *testing.T) string {
	t.Helper()
	const n = 200
	var b strings.Builder
	for v := 0; v < n; v++ {
		for k, u := range []int{(v + 1) % n, (v*7 + 3) % n, (v*13 + 29) % n, (v + n/2) % n} {
			if u == v {
				continue
			}
			fmt.Fprintf(&b, "%d %d %g %d\n", v, u, 1+float64((v*5+k*3)%9)/2, (v+k)%3)
		}
	}
	path := filepath.Join(t.TempDir(), "typed.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWalkDigestsGolden pins kkwalk's walks: every built-in algorithm,
// unbiased and biased, on 1 and 3 simulated nodes, must dump exactly the
// walks recorded in testdata/walk_digests.golden (one SHA-256 per run).
// A change that moves one step of one walker fails here. Regenerate with
// go test ./cmd/kkwalk -run TestWalkDigestsGolden -update, and only for a
// change that is meant to change walks.
func TestWalkDigestsGolden(t *testing.T) {
	g := writeTypedGraph(t)
	algs := []struct {
		name string
		args []string
	}{
		{"deepwalk", []string{"-alg", "deepwalk", "-length", "20"}},
		{"deepwalk-biased", []string{"-alg", "deepwalk", "-length", "20", "-biased"}},
		{"ppr", []string{"-alg", "ppr", "-pt", "0.1"}},
		{"rwr", []string{"-alg", "rwr", "-length", "20"}},
		{"metapath", []string{"-alg", "metapath", "-length", "20", "-schemes", "0,1;2,0,1"}},
		{"metapath-biased", []string{"-alg", "metapath", "-length", "20", "-schemes", "0,1;2,0,1", "-biased"}},
		{"node2vec", []string{"-alg", "node2vec", "-length", "20"}},
		{"node2vec-biased", []string{"-alg", "node2vec", "-length", "20", "-biased"}},
	}
	var got strings.Builder
	for _, a := range algs {
		for _, nodes := range []string{"1", "3"} {
			name := a.name + "/nodes=" + nodes
			dump := filepath.Join(t.TempDir(), "walks.txt")
			args := append([]string{"-graph", g, "-quiet", "-seed", "11", "-walkers", "300", "-nodes", nodes, "-dump", dump}, a.args...)
			if code, stderr := runKKWalk(t, args...); code != 0 {
				t.Fatalf("%s: exit status %d; stderr:\n%s", name, code, stderr)
			}
			data, err := os.ReadFile(dump)
			if err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(string(data), "\n"); lines != 300 {
				t.Fatalf("%s: dump holds %d walks, want 300", name, lines)
			}
			fmt.Fprintf(&got, "%s %x\n", name, sha256.Sum256(data))
		}
	}
	golden := filepath.Join("testdata", "walk_digests.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("walk digests differ from %s:\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}

// TestEnginePanicExitsCleanly: a biased walk on a graph whose vertex 0 has
// only zero-weight out-edges panics in the engine's sampler set-up. The
// job runner turns that into an error, so kkwalk exits 1 with one
// "kkwalk: ..." line instead of a goroutine dump.
func TestEnginePanicExitsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zero.txt")
	if err := os.WriteFile(path, []byte("0 1 0\n0 2 0\n1 2 1\n2 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := runKKWalk(t, "-graph", path, "-biased", "-quiet")
	if code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
	}
	line := strings.TrimSuffix(stderr, "\n")
	if strings.Contains(stderr, "goroutine") || strings.Contains(line, "\n") ||
		!strings.HasPrefix(line, "kkwalk: ") || !strings.Contains(line, "weights sum to 0") {
		t.Fatalf("stderr %q, want one \"kkwalk: ...weights sum to 0\" line", stderr)
	}
}
