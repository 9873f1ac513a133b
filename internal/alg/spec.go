package alg

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"knightking/internal/core"
)

// Spec names one built-in algorithm and its parameters: the request a
// front end (kkwalk's flags, kkcoord's job, a kkserve POST /jobs body)
// turns into a walk program. Zero values mean "the algorithm's default";
// Normalize fills them in and is the only place those defaults live, so
// one spec walks identically whichever front end runs it.
type Spec struct {
	// Alg is deepwalk|ppr|rwr|metapath|node2vec.
	Alg string `json:"alg"`
	// Length is the walk length (default 80). For ppr it is an optional
	// cap on the otherwise uncapped walk.
	Length int `json:"length,omitempty"`
	// Pt is ppr's per-step termination probability (default 0.0125).
	Pt float64 `json:"pt,omitempty"`
	// Restart is rwr's restart probability (default 0.15).
	Restart float64 `json:"restart,omitempty"`
	// P and Q are node2vec's return and in-out parameters (default 2, 0.5).
	P float64 `json:"p,omitempty"`
	Q float64 `json:"q,omitempty"`
	// Schemes is metapath's scheme list: comma-separated edge types,
	// ';'-separated schemes (default "0").
	Schemes string `json:"schemes,omitempty"`
	// Biased selects the weight-proportional static component.
	Biased bool `json:"biased,omitempty"`
}

// names lists the algorithms a Spec can name.
var names = []string{"deepwalk", "ppr", "rwr", "metapath", "node2vec"}

// Normalize rejects every value the constructors would panic on and fills
// the defaults of the parameters s.Alg uses, in place.
func (s *Spec) Normalize() error {
	if s.Length < 0 {
		return fmt.Errorf("length %d must be non-negative", s.Length)
	}
	switch s.Alg {
	case "deepwalk", "rwr", "metapath", "node2vec":
		if s.Length == 0 {
			s.Length = 80
		}
	case "ppr":
		// Uncapped unless length is set, as in the paper.
	default:
		return fmt.Errorf("unknown alg %q (want one of %s)", s.Alg, strings.Join(names, "|"))
	}
	switch s.Alg {
	case "ppr":
		return probability("pt", &s.Pt, 0.0125)
	case "rwr":
		return probability("restart", &s.Restart, 0.15)
	case "node2vec":
		if s.P == 0 {
			s.P = 2
		}
		if s.Q == 0 {
			s.Q = 0.5
		}
		if !(s.P > 0 && s.Q > 0) {
			return fmt.Errorf("node2vec p=%v q=%v must be positive", s.P, s.Q)
		}
	case "metapath":
		if s.Schemes == "" {
			s.Schemes = "0"
		}
		_, err := parseSchemes(s.Schemes)
		return err
	}
	return nil
}

// probability defaults *x to def when zero and requires it in (0,1).
func probability(name string, x *float64, def float64) error {
	if *x == 0 {
		*x = def
	}
	if !(*x > 0 && *x < 1) {
		return fmt.Errorf("%s %v must be in (0,1)", name, *x)
	}
	return nil
}

// Build normalizes a copy of s and returns the walk program it names.
func (s Spec) Build() (*core.Algorithm, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	switch s.Alg {
	case "deepwalk":
		return DeepWalk(s.Length, s.Biased), nil
	case "ppr":
		return PPR(s.Pt, s.Biased, s.Length), nil
	case "rwr":
		return RWR(s.Restart, s.Biased, s.Length), nil
	case "metapath":
		schemes, _ := parseSchemes(s.Schemes) // Normalize parsed it
		return MetaPath(schemes, s.Length, s.Biased), nil
	default: // node2vec
		return Node2Vec(Node2VecParams{
			P: s.P, Q: s.Q, Length: s.Length, Biased: s.Biased,
			LowerBound: true, FoldOutlier: true,
		}), nil
	}
}

// RegisterFlags binds -alg -length -pt -restart -p -q -schemes -biased to
// s. Every parameter flag defaults to zero, which Normalize reads as the
// algorithm's default.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Alg, "alg", "deepwalk", "algorithm: "+strings.Join(names, "|"))
	fs.IntVar(&s.Length, "length", 0, "walk length (0 = 80; caps ppr only when set)")
	fs.Float64Var(&s.Pt, "pt", 0, "ppr termination probability (0 = 0.0125)")
	fs.Float64Var(&s.Restart, "restart", 0, "rwr restart probability (0 = 0.15)")
	fs.Float64Var(&s.P, "p", 0, "node2vec return parameter (0 = 2)")
	fs.Float64Var(&s.Q, "q", 0, "node2vec in-out parameter (0 = 0.5)")
	fs.StringVar(&s.Schemes, "schemes", "", `metapath schemes: comma-separated types, ';'-separated schemes (empty = "0")`)
	fs.BoolVar(&s.Biased, "biased", false, "weight-biased static component")
}

// parseSchemes parses "0,1;2,0,1" into [][]int32{{0,1},{2,0,1}}, skipping
// blanks and empty schemes.
func parseSchemes(s string) ([][]int32, error) {
	var schemes [][]int32
	for _, part := range strings.Split(s, ";") {
		var scheme []int32
		for _, tok := range strings.Split(part, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, err := strconv.ParseInt(tok, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad scheme element %q", tok)
			}
			scheme = append(scheme, int32(v))
		}
		if len(scheme) > 0 {
			schemes = append(schemes, scheme)
		}
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("no metapath schemes in %q", s)
	}
	return schemes, nil
}
