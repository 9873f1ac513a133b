package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

// parityAlg is a second-order test algorithm: the walker queries the node
// owning its previous vertex and only accepts candidates whose parity
// matches the previous vertex's degree parity. It exercises the full
// two-round query machinery with an easily checkable invariant.
func parityAlg(length int) *Algorithm {
	return &Algorithm{
		Name:     "parity",
		MaxSteps: length,
		EdgeDynamicComp: func(w *Walker, e graph.Edge, result uint64, hasResult bool) float64 {
			if w.Step == 0 {
				return 1
			}
			if !hasResult {
				panic("parity Pd needs a query result")
			}
			if (uint64(e.Dst)+result)%2 == 0 {
				return 1
			}
			return 0.25
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return 1 },
		PostQuery: func(w *Walker, e graph.Edge) (graph.VertexID, uint64, bool) {
			if w.Step == 0 {
				return 0, 0, false
			}
			return w.Prev, uint64(e.Dst), true
		},
		QueryHandler: func(g *graph.Graph, target graph.VertexID, arg uint64) uint64 {
			return uint64(g.Degree(target) % 2)
		},
	}
}

func TestHigherOrderWalkCompletes(t *testing.T) {
	g := gen.UniformDegree(100, 6, 31)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   parityAlg(6),
		NumNodes:    3,
		Seed:        1,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Terminations != int64(g.NumVertices()) {
		t.Fatalf("Terminations = %d", res.Counters.Terminations)
	}
	if res.Counters.Queries == 0 {
		t.Fatal("no state queries issued by a second-order walk")
	}
	if res.Counters.EdgeProbEvals == 0 {
		t.Fatal("no Pd evaluations")
	}
	for id, p := range res.Paths {
		if len(p) != 7 {
			t.Fatalf("walker %d path %v", id, p)
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("walker %d took non-edge", id)
			}
		}
	}
}

func TestHigherOrderDeterminismAcrossNodeCounts(t *testing.T) {
	g := gen.UniformDegree(120, 8, 33)
	var ref [][]graph.VertexID
	for _, nodes := range []int{1, 2, 5} {
		res, err := Run(Config{
			Graph:       g,
			Algorithm:   parityAlg(8),
			NumNodes:    nodes,
			Seed:        77,
			RecordPaths: true,
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if ref == nil {
			ref = res.Paths
			continue
		}
		assertSamePaths(t, ref, res.Paths)
	}
}

func TestHigherOrderQueriesRouteToOwners(t *testing.T) {
	// With a custom handler that checks ownership (the engine already
	// errors on misrouted queries), a multi-node run exercising many
	// cross-partition prev/cur pairs must succeed.
	g := gen.UniformDegree(200, 10, 35)
	_, err := Run(Config{
		Graph:     g,
		Algorithm: parityAlg(10),
		NumNodes:  7,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHigherOrderRejectionRetriesAcrossSupersteps(t *testing.T) {
	// Pd = 0.25 for half the candidates means frequent rejections; the
	// iteration count must exceed the walk length (stragglers retry),
	// which is the behavior Figure 5 is about.
	g := gen.UniformDegree(60, 6, 37)
	res, err := Run(Config{
		Graph:     g,
		Algorithm: parityAlg(5),
		NumNodes:  2,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 5 {
		t.Fatalf("iterations = %d, expected straggler supersteps beyond walk length", res.Iterations)
	}
	if res.Counters.Trials <= res.Counters.Steps {
		t.Fatalf("trials %d <= steps %d despite rejections", res.Counters.Trials, res.Counters.Steps)
	}
}

// TestApplyResponsesRejectsUntrustedRecords feeds phase C crafted response
// batches. A response's walker ID indexes the parked-walker table, so every
// ID that does not name a currently parked walker — out of range, never
// parked, or already resolved — must fail the run with an error, never an
// index panic or a second resolution.
func TestApplyResponsesRejectsUntrustedRecords(t *testing.T) {
	const walkers, parkedID = 8, 2
	records := func(ids ...int64) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
			b = binary.LittleEndian.AppendUint64(b, 0) // query result
		}
		return b
	}
	for _, c := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"negative ID", records(-1), "core: response for unknown walker -1"},
		{"ID at NumWalkers", records(walkers), "core: response for unknown walker 8"},
		{"ID far out of range", records(1 << 40), "core: response for unknown walker 1099511627776"},
		{"ID not parked", records(3), "core: response for unknown walker 3"},
		{"duplicate response", records(parkedID, parkedID), "core: response for unknown walker 2"},
		{"malformed length", records(parkedID)[:15], "core: malformed response batch (15 bytes)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := newTestNode(t, Config{Graph: gen.UniformDegree(16, 4, 41), Algorithm: parityAlg(4), NumWalkers: walkers, Seed: 1})
			// Park one walker on a dart that any result accepts.
			w := n.walkers[parkedID]
			w.awaiting, w.sampling, w.pendingEdge, w.pendingY = true, true, 0, 0
			n.parkedByID[w.ID] = w

			err := n.applyResponses(c.payload, n.loop)
			if err == nil || err.Error() != c.want {
				t.Fatalf("applyResponses error = %v, want %q", err, c.want)
			}
			if strings.HasPrefix(c.name, "duplicate") && (w.awaiting || n.parkedByID[parkedID] != nil || w.Step != 1) {
				t.Fatalf("first response did not resolve walker %d exactly once: awaiting=%v step=%d", parkedID, w.awaiting, w.Step)
			}
		})
	}
}

// TestRestoreRejectsParkedWalkerOnFirstOrderWalk restores a walker parked
// on a state query into a first-order run, which keeps no parked-walker
// table: the snapshot must be refused, not indexed into a nil table.
func TestRestoreRejectsParkedWalkerOnFirstOrderWalk(t *testing.T) {
	n := newTestNode(t, Config{Graph: gen.UniformDegree(16, 4, 41), Algorithm: staticAlg(4), NumWalkers: 8, Seed: 1})
	w := n.walkers[0]
	w.awaiting, w.sampling = true, true
	err := n.validateRestoredWalker(w, map[int64]struct{}{})
	if want := "core: restored walker 0 awaits a state query, but static is not a higher-order walk"; err == nil || err.Error() != want {
		t.Fatalf("validateRestoredWalker error = %v, want %q", err, want)
	}
}

// newTestNode builds rank 0 of a 1-rank run of cfg, walkers seeded.
func newTestNode(t *testing.T, cfg Config) *node {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	part, err := cfg.partition(1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := newNode(0, &cfg, part, transport.NewInProcGroup(1)[0], &stats.Counters{}, newResult(&cfg), true)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
