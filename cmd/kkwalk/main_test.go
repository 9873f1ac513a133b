package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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
