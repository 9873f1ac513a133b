package coord

import (
	"fmt"
	"os"

	"knightking/internal/cluster"
	"knightking/internal/graph"
	"knightking/internal/job"
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

	// Spec is the walk program and run shape (alg and its parameters,
	// seed, walkers, workers, checkpoint_every), with the same keys and
	// defaults as kkwalk's flags and kkserve's POST /jobs body.
	job.Spec

	// NetTimeoutMS bounds every exchange barrier and sets the mesh's TCP
	// read/write deadlines, so a dead peer surfaces as transport.ErrTimeout
	// on the survivors instead of a hung barrier. 0 waits forever (failover
	// then relies on heartbeat timeouts plus abort-grace endpoint closes).
	NetTimeoutMS int64 `json:"net_timeout_ms,omitempty"`

	// CheckpointDir enables snapshots every CheckpointEvery supersteps;
	// it must be reachable by every worker for failover to resume.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`

	// DumpDir, when set, makes each rank write its walk sequences to
	// <DumpDir>/walks-rankNNNNN.txt, one "<walkerID> v1 v2 ..." line per
	// locally terminated walker. Sorting the concatenation numerically and
	// stripping the ID column reproduces kkwalk -dump byte-for-byte.
	DumpDir string `json:"dump_dir,omitempty"`
}

// Validate rejects obviously unrunnable specs before any worker is seated
// and fills the walk defaults in place, so every rank builds the same
// program from the Assignment it receives.
func (s *JobSpec) Validate() error {
	if s.GraphPath == "" {
		return fmt.Errorf("coord: spec has no graph path")
	}
	if err := s.Spec.Validate(s.CheckpointDir); err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return nil
}

// partitionSpec computes the job's 1-D partition and global vertex count
// without holding the full graph longer than necessary. For binary graphs
// only the degree header is read — the same agreement rule the workers
// use before loading their slices.
func partitionSpec(s *JobSpec, ranks int) (starts []graph.VertexID, numVertices int, err error) {
	if s.GraphBinary {
		f, err := os.Open(s.GraphPath)
		if err != nil {
			return nil, 0, fmt.Errorf("coord: open graph: %w", err)
		}
		defer func() { _ = f.Close() }() // read-only
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
	g, err := graph.Open(s.GraphPath, false, s.Undirected)
	if err != nil {
		return nil, 0, fmt.Errorf("coord: load graph: %w", err)
	}
	part := cluster.Partition1D(g, ranks, 1)
	return part.Starts(), g.NumVertices(), nil
}
