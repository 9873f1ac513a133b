package driver

import (
	"bytes"
	"strings"
	"testing"
)

// TestStripVariant pins the normalization of `go list -test`
// import-path spellings to the canonical package path analyzers compare
// against.
func TestStripVariant(t *testing.T) {
	cases := []struct{ in, want string }{
		{"knightking/internal/core", "knightking/internal/core"},
		{"knightking/internal/core [knightking/internal/core.test]", "knightking/internal/core"},
		{"knightking/internal/core_test [knightking/internal/core.test]", "knightking/internal/core_test"},
		{"knightking/internal/core.test", "knightking/internal/core.test"},
		{"", ""},
	}
	for _, c := range cases {
		if got := stripVariant(c.in); got != c.want {
			t.Errorf("stripVariant(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestStandaloneNoMatch pins the empty-pattern exit contract at the
// driver level: `go list` succeeds but matches nothing (testdata
// directories are excluded from wildcards), and Standalone must refuse
// with exit 2 rather than report a vacuously clean run.
func TestStandaloneNoMatch(t *testing.T) {
	var out, errw bytes.Buffer
	code := Standalone(nil, []string{"./testdata/..."}, Options{}, &out, &errw)
	if code != 2 {
		t.Fatalf("zero-match pattern exited %d, want 2\nstdout: %s\nstderr: %s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), "no packages match") {
		t.Errorf("stderr %q does not explain the empty match", errw.String())
	}
}
