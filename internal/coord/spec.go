package coord

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"knightking/internal/alg"
	"knightking/internal/cluster"
	"knightking/internal/core"
	"knightking/internal/graph"
)

// JobSpec describes one walk job. The coordinator owns the authoritative
// copy and ships it to every worker inside each Assignment, so a
// replacement worker needs nothing on its command line beyond the
// coordinator's address. Paths are interpreted on the worker's host: the
// deployment model is a shared filesystem (or identical local copies) for
// the graph, the checkpoint directory, and the dump directory.
type JobSpec struct {
	// GraphPath is the input graph file; GraphBinary selects the binary
	// CSR format (workers then load only their partition slice).
	GraphPath   string `json:"graph_path"`
	GraphBinary bool   `json:"graph_binary,omitempty"`
	// Undirected doubles text edges into both directions.
	Undirected bool `json:"undirected,omitempty"`

	// Alg selects deepwalk|ppr|rwr|metapath|node2vec, with the same
	// parameter semantics as kkwalk's flags.
	Alg     string  `json:"alg"`
	Length  int     `json:"length,omitempty"`
	Pt      float64 `json:"pt,omitempty"`
	Restart float64 `json:"restart,omitempty"`
	P       float64 `json:"p,omitempty"`
	Q       float64 `json:"q,omitempty"`
	Schemes string  `json:"schemes,omitempty"`
	Biased  bool    `json:"biased,omitempty"`

	// Walkers is the walker count (0 = |V|); Seed pins determinism.
	Walkers int    `json:"walkers,omitempty"`
	Seed    uint64 `json:"seed"`

	// Workers is the computation goroutine count per rank (0 = engine
	// default).
	Workers int `json:"workers,omitempty"`
	// Stepping / BatchSize select the phase-A strategy (engine defaults
	// when empty/zero).
	Stepping  string `json:"stepping,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`

	// NetTimeoutMS bounds every exchange barrier and sets the mesh's TCP
	// read/write deadlines, so a dead peer surfaces as transport.ErrTimeout
	// on the survivors instead of a hung barrier. 0 waits forever (failover
	// then relies on heartbeat timeouts plus abort-grace endpoint closes).
	NetTimeoutMS int64 `json:"net_timeout_ms,omitempty"`

	// CheckpointDir enables snapshots every CheckpointEvery supersteps;
	// it must be reachable by every worker for failover to resume.
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// DumpDir, when set, makes each rank write its walk sequences to
	// <DumpDir>/walks-rankNNNNN.txt, one "<walkerID> v1 v2 ..." line per
	// locally terminated walker. Sorting the concatenation numerically and
	// stripping the ID column reproduces kkwalk -dump byte-for-byte.
	DumpDir string `json:"dump_dir,omitempty"`
}

// Algorithm builds the core walk program the spec names.
func (s *JobSpec) Algorithm() (*core.Algorithm, error) {
	length := s.Length
	if length <= 0 {
		length = 80
	}
	switch s.Alg {
	case "deepwalk":
		return alg.DeepWalk(length, s.Biased), nil
	case "ppr":
		pt := s.Pt
		if pt <= 0 {
			pt = 0.0125
		}
		return alg.PPR(pt, s.Biased, 0), nil
	case "rwr":
		restart := s.Restart
		if restart <= 0 {
			restart = 0.15
		}
		return alg.RWR(restart, s.Biased, length), nil
	case "metapath":
		schemes, err := parseSchemes(s.Schemes)
		if err != nil {
			return nil, err
		}
		return alg.MetaPath(schemes, length, s.Biased), nil
	case "node2vec":
		p, q := s.P, s.Q
		if p == 0 {
			p = 2
		}
		if q == 0 {
			q = 0.5
		}
		return alg.Node2Vec(alg.Node2VecParams{
			P: p, Q: q, Length: length, Biased: s.Biased,
			LowerBound: true, FoldOutlier: true,
		}), nil
	default:
		return nil, fmt.Errorf("coord: unknown algorithm %q", s.Alg)
	}
}

// Validate rejects obviously unrunnable specs before any worker is seated.
func (s *JobSpec) Validate() error {
	if s.GraphPath == "" {
		return fmt.Errorf("coord: spec has no graph path")
	}
	if _, err := s.Algorithm(); err != nil {
		return err
	}
	if s.CheckpointDir != "" && s.CheckpointEvery < 0 {
		return fmt.Errorf("coord: negative checkpoint interval %d", s.CheckpointEvery)
	}
	// Every rank's core.Run would reject it too, but only after the job is
	// seated — and each rank failure then triggers a failover attempt.
	switch s.Stepping {
	case "", core.SteppingInterleaved, core.SteppingScalar:
	default:
		return fmt.Errorf("coord: unknown stepping %q (want %s or %s)", s.Stepping, core.SteppingInterleaved, core.SteppingScalar)
	}
	return nil
}

// parseSchemes parses "0,1;2,0,1" into [][]int32{{0,1},{2,0,1}} —
// kkwalk's -schemes syntax.
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
				return nil, fmt.Errorf("coord: bad scheme element %q: %w", tok, err)
			}
			scheme = append(scheme, int32(v))
		}
		if len(scheme) > 0 {
			schemes = append(schemes, scheme)
		}
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("coord: no metapath schemes in %q", s)
	}
	return schemes, nil
}

// partitionSpec computes the job's 1-D partition and global vertex count
// without holding the full graph longer than necessary. For binary graphs
// only the degree header is read — the same agreement rule the workers
// use before loading their slices.
func partitionSpec(s *JobSpec, ranks int) (starts []graph.VertexID, numVertices int, err error) {
	f, err := os.Open(s.GraphPath)
	if err != nil {
		return nil, 0, fmt.Errorf("coord: open graph: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only
	if s.GraphBinary {
		hdr, err := graph.ReadBinaryDegrees(f)
		if err != nil {
			return nil, 0, fmt.Errorf("coord: read degrees: %w", err)
		}
		degrees := make([]int, hdr.NumVertices)
		for v := range degrees {
			degrees[v] = hdr.Degree(graph.VertexID(v))
		}
		part := cluster.Partition1DFromDegrees(degrees, ranks, 1)
		return part.Starts(), hdr.NumVertices, nil
	}
	g, err := graph.ReadEdgeList(f, s.Undirected, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("coord: load graph: %w", err)
	}
	part := cluster.Partition1D(g, ranks, 1)
	return part.Starts(), g.NumVertices(), nil
}
