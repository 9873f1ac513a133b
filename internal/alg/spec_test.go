package alg

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestSpecNormalizeDefaults: each algorithm's zero-valued parameters become
// the one set of defaults every front end walks with, and only the
// parameters the algorithm reads are filled.
func TestSpecNormalizeDefaults(t *testing.T) {
	for _, tc := range []struct {
		in, want Spec
	}{
		{Spec{Alg: "deepwalk"}, Spec{Alg: "deepwalk", Length: 80}},
		{Spec{Alg: "ppr"}, Spec{Alg: "ppr", Pt: 0.0125}},
		{Spec{Alg: "ppr", Length: 30}, Spec{Alg: "ppr", Length: 30, Pt: 0.0125}},
		{Spec{Alg: "rwr"}, Spec{Alg: "rwr", Length: 80, Restart: 0.15}},
		{Spec{Alg: "metapath"}, Spec{Alg: "metapath", Length: 80, Schemes: "0"}},
		{Spec{Alg: "node2vec"}, Spec{Alg: "node2vec", Length: 80, P: 2, Q: 0.5}},
		{Spec{Alg: "node2vec", P: 0.25, Biased: true}, Spec{Alg: "node2vec", Length: 80, P: 0.25, Q: 0.5, Biased: true}},
	} {
		got := tc.in
		if err := got.Normalize(); err != nil {
			t.Fatalf("%+v: %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
		again := got
		if err := again.Normalize(); err != nil || again != got {
			t.Errorf("Normalize is not idempotent on %+v: %+v, %v", got, again, err)
		}
	}
}

// TestSpecBuild: Build normalizes a copy and hands the constructors the
// defaulted parameters.
func TestSpecBuild(t *testing.T) {
	for _, tc := range []struct {
		spec     Spec
		name     string
		maxSteps int
	}{
		{Spec{Alg: "deepwalk"}, "deepwalk", 80},
		{Spec{Alg: "ppr"}, "ppr", 0},
		{Spec{Alg: "ppr", Length: 7}, "ppr", 7},
		{Spec{Alg: "rwr", Length: 9}, "rwr", 9},
		{Spec{Alg: "metapath", Schemes: "0,1;2"}, "metapath", 80},
		{Spec{Alg: "node2vec"}, "node2vec", 80},
	} {
		in := tc.spec
		a, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if a.Name != tc.name || a.MaxSteps != tc.maxSteps {
			t.Errorf("Build(%+v) = %s with MaxSteps %d, want %s with %d", tc.spec, a.Name, a.MaxSteps, tc.name, tc.maxSteps)
		}
		if tc.spec != in {
			t.Errorf("Build changed its receiver: %+v -> %+v", in, tc.spec)
		}
	}
	if a, _ := (Spec{Alg: "ppr"}).Build(); a.TerminationProb != 0.0125 {
		t.Errorf("ppr termination probability %v, want 0.0125", a.TerminationProb)
	}
	if a, _ := (Spec{Alg: "rwr"}).Build(); a.RestartProb != 0.15 {
		t.Errorf("rwr restart probability %v, want 0.15", a.RestartProb)
	}
}

// TestSpecRejectsOutOfRange: every value a constructor would panic on is
// an error from Normalize and Build, never a panic.
func TestSpecRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Alg: "deepwalk", Length: -5}, "length -5"},
		{Spec{Alg: "ppr", Length: -1}, "length -1"},
		{Spec{Alg: "ppr", Pt: 1}, "pt 1 "},
		{Spec{Alg: "ppr", Pt: 1.5}, "pt 1.5"},
		{Spec{Alg: "ppr", Pt: -0.1}, "pt -0.1"},
		{Spec{Alg: "rwr", Restart: 1}, "restart 1 "},
		{Spec{Alg: "rwr", Restart: 2}, "restart 2"},
		{Spec{Alg: "rwr", Restart: -0.5}, "restart -0.5"},
		{Spec{Alg: "node2vec", P: -1}, "p=-1"},
		{Spec{Alg: "node2vec", Q: -0.5}, "q=-0.5"},
		{Spec{Alg: "pagerank"}, `"pagerank"`},
		{Spec{}, `unknown alg ""`},
		{Spec{Alg: "metapath", Schemes: " ; "}, "no metapath schemes"},
		{Spec{Alg: "metapath", Schemes: "0,x"}, `"x"`},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%+v panicked: %v", tc.spec, r)
				}
			}()
			s := tc.spec
			if err := s.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Normalize(%+v) = %v, want an error naming %s", tc.spec, err, tc.want)
			}
			if _, err := tc.spec.Build(); err == nil {
				t.Errorf("Build(%+v) accepted the spec", tc.spec)
			}
		}()
	}
	// An empty scheme list has nothing to walk; Normalize only reaches it
	// through a string with no elements, as the default fills "".
	if _, err := parseSchemes(""); err == nil {
		t.Error(`parseSchemes("") accepted an empty scheme list`)
	}
}

// TestSpecRegisterFlags: the flags bind every field, and an unset flag
// leaves the zero that Normalize reads as the algorithm default.
func TestSpecRegisterFlags(t *testing.T) {
	var s Spec
	fs := flag.NewFlagSet("kk", flag.ContinueOnError)
	s.RegisterFlags(fs)
	if s != (Spec{Alg: "deepwalk"}) {
		t.Fatalf("defaults %+v, want only -alg deepwalk", s)
	}
	err := fs.Parse([]string{"-alg", "metapath", "-length", "5", "-pt", "0.5", "-restart", "0.25",
		"-p", "3", "-q", "4", "-schemes", "1;2", "-biased"})
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Alg: "metapath", Length: 5, Pt: 0.5, Restart: 0.25, P: 3, Q: 4, Schemes: "1;2", Biased: true}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
}

func TestParseSchemes(t *testing.T) {
	got, err := parseSchemes("0,1;2,0,1")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{0, 1}, {2, 0, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("schemes = %v, want %v", got, want)
	}
}

func TestParseSchemesWhitespaceAndEmpties(t *testing.T) {
	got, err := parseSchemes(" 3 , 4 ;;5,")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{3, 4}, {5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("schemes = %v, want %v", got, want)
	}
}

func TestParseSchemesSingle(t *testing.T) {
	got, err := parseSchemes("7")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{7}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("schemes = %v, want %v", got, want)
	}
}
