package core

// Allocation regression guards for the zero-alloc hot path. These run in
// the ordinary test suite (tier 1), so an accidental per-walker or
// per-message allocation fails CI immediately instead of surfacing as a
// silent throughput regression on the next benchmark sweep.

import (
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/rng"
)

// TestWalkerCodecZeroAlloc: encoding into a reused buffer and decoding
// into a reused walker must not allocate once the backing capacity exists
// — this is the steady state of the migration path.
func TestWalkerCodecZeroAlloc(t *testing.T) {
	w := &Walker{
		ID:      42,
		Origin:  3,
		Prev:    7,
		Cur:     9,
		Step:    5,
		R:       rng.Stream(1, 42),
		History: []graph.VertexID{1, 2, 3},
		Path:    []graph.VertexID{3, 1, 2, 7, 9},
	}
	buf := encodeWalker(nil, w)
	into := &Walker{}
	if _, err := decodeWalkerInto(into, buf); err != nil {
		t.Fatal(err)
	}
	// Warm: into now has History/Path capacity; buf has encoding capacity.
	allocs := testing.AllocsPerRun(100, func() {
		buf = encodeWalker(buf[:0], w)
		if _, err := decodeWalkerInto(into, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("walker encode/decode round trip allocates %.1f per op, want 0", allocs)
	}
}

// TestEngineRunAllocCeiling pins an allocation budget for a full multi-node
// in-process run. The budget covers setup (graph partitioning bookkeeping,
// sampler tables, worker state) plus the steady-state walker/message path,
// which after the arena/slab work contributes almost nothing — so the
// ceiling is far below one allocation per step and any reintroduced
// per-step or per-migration allocation (tens of thousands of steps here)
// blows through it at once.
func TestEngineRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement")
	}
	g := gen.UniformDegree(600, 8, 271)
	cfg := Config{
		Graph:      g,
		Algorithm:  staticAlg(30),
		NumWalkers: 600,
		NumNodes:   4,
		Seed:       273,
	}
	if _, err := Run(cfg); err != nil { // warm shared caches (uniform samplers)
		t.Fatal(err)
	}
	var steps int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps = res.Counters.Steps
	})
	// Measured ~1200 allocs for this config (18k steps, 0.07 allocs/step —
	// dominated by setup and per-superstep costs, not the walker path);
	// 2x headroom for toolchain variance. One alloc per step would be
	// ~18000 and one per migration ~5000.
	const ceiling = 2500
	t.Logf("%.1f allocs per run over %d steps (%.4f allocs/step)", allocs, steps, allocs/float64(steps))
	if allocs > ceiling {
		t.Fatalf("engine run allocates %.1f per run (ceiling %d): the zero-alloc hot path regressed", allocs, ceiling)
	}
}

// TestEngineRunAllocCeilingHigherOrder pins the same budget for the
// query/response machinery: parked walkers, query batches, response
// resolution, and the pooled migration path under a second-order walk.
func TestEngineRunAllocCeilingHigherOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement")
	}
	g := gen.UniformDegree(300, 6, 277)
	cfg := Config{
		Graph:      g,
		Algorithm:  parityAlg(20),
		NumWalkers: 300,
		NumNodes:   4,
		Seed:       279,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var steps int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps = res.Counters.Steps
	})
	// Measured ~5300 for this config (6k steps, 6k queries): two-phase
	// supersteps pay per-(dest, superstep) payload copies and worker
	// goroutine spawns, which dominate at this small scale. 2x headroom;
	// a reintroduced per-query or per-trial allocation adds >= 6000.
	const ceiling = 11000
	t.Logf("%.1f allocs per run over %d steps (%.4f allocs/step)", allocs, steps, allocs/float64(steps))
	if allocs > ceiling {
		t.Fatalf("higher-order run allocates %.1f per run (ceiling %d): the zero-alloc hot path regressed", allocs, ceiling)
	}
}

// TestEngineRunAllocCeilingWeighted is the weighted sibling: biased
// DeepWalk builds an alias row per vertex, so any per-vertex set-up
// allocation (5,000 vertices here) blows through a budget sized for the
// per-node slabs.
func TestEngineRunAllocCeilingWeighted(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget measurement")
	}
	g := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(5000, 4, 500, 2.0, 281), 10, 2.0, 282)
	cfg := Config{
		Graph:      g,
		Algorithm:  &Algorithm{Name: "deepwalk-biased", Biased: true, MaxSteps: 10},
		NumWalkers: 2000,
		NumNodes:   4,
		Seed:       283,
	}
	var steps int64
	allocs := testing.AllocsPerRun(5, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps = res.Counters.Steps
	})
	// Measured ~660 for this config (20k steps). Building a table with
	// separate allocations per vertex measured ~40,700 (8 per vertex);
	// even one allocation per vertex would add 5,000.
	const ceiling = 1500
	t.Logf("%.1f allocs per run over %d steps (%.4f allocs/step)", allocs, steps, allocs/float64(steps))
	if allocs > ceiling {
		t.Fatalf("weighted engine run allocates %.1f per run (ceiling %d): set-up or the hot path allocates per vertex or per step", allocs, ceiling)
	}
}

// TestEncodeSnapshotOneAlloc: a checkpoint segment is encoded into one
// buffer sized up front for the walker records and the result section,
// so encoding makes exactly one allocation and never regrows (and
// copies) the blob. The node owns the result section with paths and
// visit counts on, one walker is parked on a pending dart, and a third
// of the walkers have finished paths.
func TestEncodeSnapshotOneAlloc(t *testing.T) {
	const walkers = 300
	n := newTestNode(t, Config{
		Graph: gen.UniformDegree(200, 4, 7), Algorithm: parityAlg(4), NumWalkers: walkers, Seed: 1,
		RecordPaths: true, CountVisits: true,
	})
	if len(n.walkers) == 0 || n.res.Paths == nil || n.res.Visits == nil {
		t.Fatal("the node has no walkers, paths or visits to encode")
	}
	w := n.walkers[0]
	w.awaiting, w.sampling = true, true
	w.History = append(w.History, 5, 6)
	w.Path = append(w.Path, 1, 2, 3)
	for id := 0; id < walkers; id += 3 {
		n.res.Paths[id] = []graph.VertexID{graph.VertexID(id % 200), 1, 2}
		n.res.Lengths.Observe(int64(id % 5))
	}
	var blob []byte
	allocs := testing.AllocsPerRun(20, func() { blob = n.encodeSnapshot(7) })
	if allocs != 1 {
		t.Fatalf("encodeSnapshot makes %.1f allocations, want 1", allocs)
	}
	if len(blob) != cap(blob) {
		t.Fatalf("encodeSnapshot sized its buffer for %d bytes and wrote %d", cap(blob), len(blob))
	}
}
