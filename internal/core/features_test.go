package core

import (
	"math"
	"net"
	"sync"
	"testing"

	"knightking/internal/cluster"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/transport"
)

// listenLoopback reserves a loopback TCP port.
func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestStartWeightsDistribution(t *testing.T) {
	g := gen.Ring(4, 0)
	weights := []float32{1, 0, 0, 3}
	res, err := Run(Config{
		Graph:        g,
		Algorithm:    staticAlg(1),
		NumWalkers:   40000,
		StartWeights: weights,
		Seed:         1,
		RecordPaths:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	for _, p := range res.Paths {
		counts[p[0]]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight start vertices used: %v", counts)
	}
	got := counts[3] / float64(len(res.Paths))
	if math.Abs(got-0.75) > 0.01 {
		t.Fatalf("start frequency of vertex 3 = %v, want 0.75", got)
	}
}

func TestStartWeightsValidation(t *testing.T) {
	g := gen.Ring(4, 0)
	if _, err := Run(Config{
		Graph: g, Algorithm: staticAlg(1),
		StartWeights: []float32{1, 2}, // wrong length
	}); err == nil {
		t.Fatal("bad StartWeights length accepted")
	}
	if _, err := Run(Config{
		Graph: g, Algorithm: staticAlg(1),
		StartWeights: []float32{1, 1, 1, 1},
		StartVertex:  func(int64) graph.VertexID { return 0 },
	}); err == nil {
		t.Fatal("StartVertex + StartWeights accepted")
	}
}

func TestStartWeightsDeterministicAcrossNodes(t *testing.T) {
	g := gen.UniformDegree(100, 6, 3)
	weights := make([]float32, 100)
	for i := range weights {
		weights[i] = float32(i%5) + 1
	}
	var ref [][]graph.VertexID
	for _, nodes := range []int{1, 3} {
		res, err := Run(Config{
			Graph: g, Algorithm: staticAlg(5), NumNodes: nodes,
			StartWeights: weights, Seed: 9, RecordPaths: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Paths
			continue
		}
		assertSamePaths(t, ref, res.Paths)
	}
}

func TestCountVisits(t *testing.T) {
	g := gen.Ring(6, 0)
	res, err := Run(Config{
		Graph:       g,
		Algorithm:   staticAlg(10),
		NumWalkers:  100,
		Seed:        2,
		CountVisits: true,
		NumNodes:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range res.Visits {
		total += v
	}
	// Every move lands on exactly one vertex.
	if total != res.Counters.Steps {
		t.Fatalf("visit total %d != steps %d", total, res.Counters.Steps)
	}
}

func TestCountVisitsMatchesPaths(t *testing.T) {
	g := gen.UniformDegree(50, 6, 5)
	res, err := Run(Config{
		Graph: g, Algorithm: staticAlg(8), Seed: 7,
		CountVisits: true, RecordPaths: true, NumNodes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, g.NumVertices())
	for _, p := range res.Paths {
		for _, v := range p[1:] { // start excluded
			want[v]++
		}
	}
	for v := range want {
		if want[v] != res.Visits[v] {
			t.Fatalf("vertex %d: visits %d, paths say %d", v, res.Visits[v], want[v])
		}
	}
}

func TestRestartTeleports(t *testing.T) {
	// Directed path graph: without restarts, walkers from 0 would stop at
	// the sink. With restarts they teleport back to their origin.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	res, err := Run(Config{
		Graph: g,
		Algorithm: &Algorithm{
			Name: "rwr-ish", RestartProb: 0.5, MaxSteps: 200,
		},
		NumWalkers:  50,
		StartVertex: func(int64) graph.VertexID { return 0 },
		Seed:        3,
		RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Restarts == 0 {
		t.Fatal("no restarts happened")
	}
	for _, p := range res.Paths {
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) && p[i] != 0 {
				t.Fatalf("non-edge move that is not a teleport to origin: %d->%d", p[i-1], p[i])
			}
		}
	}
}

func TestRestartStepAccounting(t *testing.T) {
	g := gen.Ring(8, 0)
	res, err := Run(Config{
		Graph: g,
		Algorithm: &Algorithm{
			Name: "restarty", RestartProb: 0.3, MaxSteps: 20,
		},
		NumWalkers: 500,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Walk length counts both edge moves and teleports; the ring has no
	// sinks so every walker reaches exactly MaxSteps.
	if got := res.Lengths.Mean(); got != 20 {
		t.Fatalf("mean walk length %v, want 20", got)
	}
	if res.Counters.Steps+res.Counters.Restarts != 500*20 {
		t.Fatalf("steps %d + restarts %d != 10000", res.Counters.Steps, res.Counters.Restarts)
	}
	if res.Counters.Restarts == 0 || res.Counters.Steps == 0 {
		t.Fatal("expected a mix of moves and restarts")
	}
}

func TestRestartDeterministicAcrossNodes(t *testing.T) {
	g := gen.UniformDegree(90, 6, 11)
	var ref [][]graph.VertexID
	for _, nodes := range []int{1, 4} {
		res, err := Run(Config{
			Graph: g,
			Algorithm: &Algorithm{
				Name: "restarty", RestartProb: 0.2, MaxSteps: 15,
			},
			NumNodes: nodes, Seed: 13, RecordPaths: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Paths
			continue
		}
		assertSamePaths(t, ref, res.Paths)
	}
}

func TestEngineOverTCPMatchesInProc(t *testing.T) {
	// The acid test for the transport abstraction: the same walk over real
	// TCP loopback must produce byte-identical paths.
	g := gen.UniformDegree(80, 6, 19)
	inproc, err := Run(Config{
		Graph: g, Algorithm: parityAlg(5), NumNodes: 3, Seed: 21, RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	eps := dialTCPGroup(t, 3)
	tcp, err := Run(Config{
		Graph: g, Algorithm: parityAlg(5), Endpoints: eps, Seed: 21, RecordPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSamePaths(t, inproc.Paths, tcp.Paths)
	if tcp.Counters.Steps != inproc.Counters.Steps {
		t.Fatalf("step counts differ: %d vs %d", tcp.Counters.Steps, inproc.Counters.Steps)
	}
}

// dialTCPGroup brings up an n-rank loopback TCP mesh.
func dialTCPGroup(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	// Reserve ports.
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := listenLoopback()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		lns = append(lns, ln)
	}
	for _, ln := range lns {
		ln.Close()
	}
	eps := make([]transport.Endpoint, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = transport.DialTCPGroup(i, addrs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps
}

func TestRunNodeMergesToFullRun(t *testing.T) {
	// Three "processes" (goroutines over real TCP), each running RunNode
	// with the identical config. The union of their partial results must
	// equal the single-process Run.
	g := gen.UniformDegree(90, 6, 71)
	mkCfg := func() Config {
		return Config{
			Graph:       g,
			Algorithm:   parityAlg(5),
			Seed:        73,
			RecordPaths: true,
			CountVisits: true,
		}
	}
	ref, err := Run(func() Config { c := mkCfg(); c.NumNodes = 3; return c }())
	if err != nil {
		t.Fatal(err)
	}

	eps := dialTCPGroup(t, 3)
	results := make([]*Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunNode(mkCfg(), eps[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Merge partial paths: each walker terminates on exactly one rank.
	merged := make([][]graph.VertexID, g.NumVertices())
	var terms, steps int64
	visits := make([]int64, g.NumVertices())
	for _, r := range results {
		terms += r.Counters.Terminations
		steps += r.Counters.Steps
		for id, p := range r.Paths {
			if p == nil {
				continue
			}
			if merged[id] != nil {
				t.Fatalf("walker %d terminated on two ranks", id)
			}
			merged[id] = p
		}
		for v, n := range r.Visits {
			visits[v] += n
		}
	}
	if terms != ref.Counters.Terminations || steps != ref.Counters.Steps {
		t.Fatalf("merged counters (%d terms, %d steps) != reference (%d, %d)",
			terms, steps, ref.Counters.Terminations, ref.Counters.Steps)
	}
	assertSamePaths(t, ref.Paths, merged)
	for v := range visits {
		if visits[v] != ref.Visits[v] {
			t.Fatalf("vertex %d merged visits %d != %d", v, visits[v], ref.Visits[v])
		}
	}
}

func TestRunNodeValidation(t *testing.T) {
	if _, err := RunNode(Config{}, nil); err == nil {
		t.Fatal("nil endpoint accepted")
	}
}

func TestRunNodeWithPartialGraphs(t *testing.T) {
	// The full distributed data placement: each rank holds only its vertex
	// range's adjacency (graph.Subgraph) plus the agreed partition
	// boundaries. Results must match the shared-full-graph run exactly.
	g := gen.UniformDegree(120, 6, 81)
	part := cluster.Partition1D(g, 3, 1)
	starts := part.Starts()

	ref, err := Run(Config{
		Graph: g, Algorithm: parityAlg(5), NumNodes: 3, Seed: 83,
		RecordPaths: true, PartitionStarts: starts,
	})
	if err != nil {
		t.Fatal(err)
	}

	eps := dialTCPGroup(t, 3)
	results := make([]*Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := part.Range(i)
			local := graph.Subgraph(g, lo, hi) // rank i's slice only
			results[i], errs[i] = RunNode(Config{
				Graph:           local,
				Algorithm:       parityAlg(5),
				Seed:            83,
				RecordPaths:     true,
				PartitionStarts: starts,
			}, eps[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	merged := make([][]graph.VertexID, g.NumVertices())
	for _, r := range results {
		for id, p := range r.Paths {
			if p != nil {
				merged[id] = p
			}
		}
	}
	assertSamePaths(t, ref.Paths, merged)
}

func TestRunPartialGraphRequiresPartitionStarts(t *testing.T) {
	g := gen.UniformDegree(50, 6, 85)
	local := graph.Subgraph(g, 0, 25)
	if _, err := Run(Config{Graph: local, Algorithm: staticAlg(3), NumNodes: 2, Seed: 1}); err == nil {
		t.Fatal("partial graph without PartitionStarts accepted")
	}
}

func TestRunPartitionStartsValidation(t *testing.T) {
	g := gen.UniformDegree(50, 6, 87)
	if _, err := Run(Config{
		Graph: g, Algorithm: staticAlg(3), NumNodes: 2, Seed: 1,
		PartitionStarts: []graph.VertexID{0, 25}, // wrong length and coverage
	}); err == nil {
		t.Fatal("bad PartitionStarts accepted")
	}
}
