package main

import (
	"bytes"
	"strings"
	"testing"

	"knightking/internal/lint/driver"
)

// TestRepoComesUpClean is the self-check the acceptance criteria demand:
// kklint over the whole module, test variants included, finds nothing
// and no waiver is stale — every wall-clock read in
// the deterministic packages carries a reasoned waiver, no payload
// escapes its Exchange window, counters stay atomic, the hot path does
// not allocate, phase-tagged state moves only inside its phase, every
// goroutine joins, and no error is silently dropped.
func TestRepoComesUpClean(t *testing.T) {
	var out, errw bytes.Buffer
	code := driver.Standalone(analyzers(), []string{"knightking/..."}, driver.Options{}, &out, &errw)
	if code != 0 {
		t.Fatalf("kklint knightking/... exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected diagnostics:\n%s", out.String())
	}
}

// TestRepoCleanWithTests pins that the default sweep covers the test
// variants (regular + _test.go files, external test packages) with no
// flag asking for them: the command-line run comes up clean, and its
// waiver listing reaches into _test.go files, which it could not if
// test files went unanalyzed.
func TestRepoCleanWithTests(t *testing.T) {
	var out, errw bytes.Buffer
	code := runMain([]string{"-waivers", "knightking/..."}, &out, &errw)
	if code != 0 {
		t.Fatalf("kklint -waivers knightking/... exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	inTests := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.Contains(line, "waived: ") {
			t.Errorf("diagnostic in clean run: %q", line)
		}
		if strings.Contains(line, "_test.go:") {
			inTests++
		}
	}
	if inTests == 0 {
		t.Error("no waiver from a _test.go file in the listing; test variants went unanalyzed")
	}
}

// TestRepoWaiversRecorded pins that the waivers in the engine are visible
// to the audit listing: every waiver has a reason, the known telemetry
// sites are present, and no stale waiver markers survive.
func TestRepoWaiversRecorded(t *testing.T) {
	var out, errw bytes.Buffer
	opts := driver.Options{Waivers: true}
	code := driver.Standalone(analyzers(), []string{"knightking/..."}, opts, &out, &errw)
	if code != 0 {
		t.Fatalf("kklint -waivers exited %d:\n%s\n%s", code, out.String(), errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 30 {
		t.Fatalf("expected the engine's waivers in the listing, got %d lines:\n%s",
			len(lines), out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, "waived: ") {
			t.Errorf("non-waiver line in clean run: %q", line)
		}
	}
}

// TestEmptyPatternFails pins the exit contract for patterns that match
// nothing: a CI step linting a mistyped path must fail loudly, not pass
// vacuously. Two shapes: a path that does not exist (go list itself
// errors) and a real directory containing no Go packages (go list
// succeeds with zero matches and the driver must refuse).
func TestEmptyPatternFails(t *testing.T) {
	var out, errw bytes.Buffer
	code := runMain([]string{"./does/not/exist/..."}, &out, &errw)
	if code != 2 {
		t.Fatalf("nonexistent pattern exited %d, want 2\nstdout: %s\nstderr: %s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), "no such file or directory") &&
		!strings.Contains(errw.String(), "matched no packages") {
		t.Errorf("stderr %q does not explain the empty match", errw.String())
	}

	dir := t.TempDir() // exists, but holds no Go files
	out.Reset()
	errw.Reset()
	code = runMain([]string{dir}, &out, &errw)
	if code != 2 {
		t.Fatalf("zero-match pattern exited %d, want 2\nstdout: %s\nstderr: %s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), "no packages match") &&
		!strings.Contains(errw.String(), "no Go files") &&
		!strings.Contains(errw.String(), "matched no packages") {
		t.Errorf("stderr %q does not explain the empty match", errw.String())
	}
}
