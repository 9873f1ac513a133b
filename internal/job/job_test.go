package job

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/cluster"
	"knightking/internal/core"
	"knightking/internal/dyngraph"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/obs"
	"knightking/internal/obs/tracelog"
	"knightking/internal/transport"
)

// progress is a kkrank-style observer: it only remembers the last
// superstep, as the rank's heartbeat does.
type progress struct {
	mu        sync.Mutex
	superstep int
}

func (p *progress) OnSuperstep(span core.SuperstepSpan) {
	p.mu.Lock()
	p.superstep = span.Iteration
	p.mu.Unlock()
}

// outcome is what a front end gets back from one run.
type outcome struct {
	paths               [][]graph.VertexID
	steps, terminations int64
}

// runRanks runs spec as three kkrank processes would: one PrepareRank and
// one RunNode per endpoint of an in-process group, the coordinator's
// partition on every rank, walks merged by walker ID.
func runRanks(t *testing.T, spec Spec, g *graph.Graph) outcome {
	t.Helper()
	const ranks = 3
	starts := cluster.Partition1D(g, ranks, 1).Starts()
	eps := transport.NewInProcGroup(ranks)
	results := make([]*core.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := range eps {
		run, err := PrepareRank(spec, g, rank, Wiring{PartitionStarts: starts, Observer: &progress{}, RecordPaths: true})
		if err != nil {
			t.Fatalf("rank %d: prepare: %v", rank, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank], _, errs[rank] = run.RunNode(eps[rank])
		}()
	}
	wg.Wait()
	var out outcome
	for rank, res := range results {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		if out.paths == nil {
			out.paths = make([][]graph.VertexID, len(res.Paths))
		}
		for id, p := range res.Paths {
			if p != nil {
				out.paths[id] = p
			}
		}
		out.steps += res.Counters.Steps
		out.terminations += res.Counters.Terminations
	}
	return out
}

// TestFrontEndParity runs one Spec through the wirings of the three front
// ends — kkwalk's in-process ranks with a registry and tracing, kkserve's
// graph epoch as sampler provider with the trace collector as observer,
// and kkrank's one RunNode per rank — and requires the same walks, steps
// and terminations from each.
func TestFrontEndParity(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(300, 6, 21), 1, 4, 22)
	dyn, err := dyngraph.New(g, dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := dyn.Epoch()
	inProc := func(w Wiring) func(*testing.T, Spec) outcome {
		return func(t *testing.T, spec Spec) outcome {
			w.Nodes, w.RecordPaths = 3, true
			run, err := Prepare(spec, epoch.View(), w)
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := run.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Steps != res.Counters.Steps || rep.Walkers != 300 || rep.Ranks != 3 {
				t.Fatalf("report %+v does not describe the run", rep)
			}
			return outcome{res.Paths, res.Counters.Steps, res.Counters.Terminations}
		}
	}
	for _, spec := range []Spec{
		{Spec: alg.Spec{Alg: "deepwalk", Length: 15, Biased: true}, Seed: 3, Workers: 2},
		{Spec: alg.Spec{Alg: "node2vec", Length: 12, Biased: true}, Seed: 4, Workers: 2},
	} {
		t.Run(spec.Alg, func(t *testing.T) {
			var want outcome
			for i, fe := range []struct {
				name string
				run  func(*testing.T, Spec) outcome
			}{
				{"kkwalk", inProc(Wiring{Registry: obs.NewRegistry(nil), Trace: true})},
				{"kkserve", inProc(Wiring{Samplers: epoch, Trace: true, TraceSample: 8})},
				{"kkrank", func(t *testing.T, spec Spec) outcome { return runRanks(t, spec, epoch.View()) }},
			} {
				got := fe.run(t, spec)
				if i == 0 {
					want = got
					continue
				}
				assertSamePaths(t, fe.name, want.paths, got.paths)
				if got.steps != want.steps || got.terminations != want.terminations {
					t.Errorf("%s: %d steps, %d terminations; kkwalk wiring %d, %d",
						fe.name, got.steps, got.terminations, want.steps, want.terminations)
				}
			}
		})
	}
}

// TestObservationKeepsZeroCopyMigration runs a 2-rank in-process biased
// DeepWalk plain, with kkwalk's wiring (the registry as Observer with a
// trace collector attached, the collector as Trace) and with kkserve's
// wiring (one collector as Observer and Trace). Attaching observation must
// change neither the walks nor the transport traffic — in-process
// migrations stay on the zero-copy path instead of the byte codec — while
// the trace still records every exchange with its per-peer deliveries.
func TestObservationKeepsZeroCopyMigration(t *testing.T) {
	g := gen.WithUniformWeights(gen.UniformDegree(400, 8, 11), 1, 4, 12)
	spec := Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 20, Biased: true}, Seed: 5, Workers: 2}
	run := func(name string, w Wiring) (*core.Result, *tracelog.Collector) {
		w.Nodes, w.RecordPaths = 2, true
		j, err := Prepare(spec, g, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, _, err := j.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, j.Trace
	}
	plain, _ := run("plain run", Wiring{})
	viaRegistry, walkTrace := run("registry-observed run", Wiring{Registry: obs.NewRegistry(nil), Trace: true})
	viaCollector, serveTrace := run("collector-observed run", Wiring{Trace: true})

	for _, run := range []struct {
		name string
		res  *core.Result
		tc   *tracelog.Collector
	}{{"kkwalk wiring", viaRegistry, walkTrace}, {"kkserve wiring", viaCollector, serveTrace}} {
		assertSamePaths(t, run.name, plain.Paths, run.res.Paths)
		if run.res.Counters.Messages != plain.Counters.Messages || run.res.Counters.BytesSent != plain.Counters.BytesSent {
			t.Errorf("%s: %d messages / %d bytes sent, plain run %d / %d",
				run.name, run.res.Counters.Messages, run.res.Counters.BytesSent,
				plain.Counters.Messages, plain.Counters.BytesSent)
		}
		kinds := make(map[tracelog.Kind]int)
		events, _ := run.tc.Events()
		for _, ev := range events {
			kinds[ev.Kind]++
		}
		if kinds[tracelog.KindExchange] == 0 || kinds[tracelog.KindExchangePeer] == 0 {
			t.Errorf("%s: trace holds %d exchange and %d exchange-peer events, want both",
				run.name, kinds[tracelog.KindExchange], kinds[tracelog.KindExchangePeer])
		}
	}
}

// TestEnginePanicIsRunError: a zero-weight vertex panics in the engine's
// sampler set-up; Run and RunNode return that as an error, whichever
// set-up goroutine the panic happens on: vertex 0 on a lone rank, and the
// last vertex on the last of 2 ranks, inside the second of its 2 workers'
// ranges.
func TestEnginePanicIsRunError(t *testing.T) {
	var ring strings.Builder
	const n = 40
	for v := 0; v < n; v++ {
		w := 1
		if v == n-1 {
			w = 0
		}
		fmt.Fprintf(&ring, "%d %d %d\n%d %d %d\n", v, (v+1)%n, w, v, (v+2)%n, w)
	}
	cases := []struct {
		name        string
		edges       string
		nodes, rank int
		workers     int
	}{
		{"vertex 0, 1 rank", "0 1 0\n0 2 0\n1 2 1\n2 0 1\n", 1, 0, 0},
		{"last vertex, rank 1 of 2, worker 1 of 2", ring.String(), 2, 1, 2},
	}
	for _, c := range cases {
		g, err := graph.ReadEdgeList(strings.NewReader(c.edges), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Spec: alg.Spec{Alg: "deepwalk", Biased: true}, Seed: 1, Workers: c.workers}
		run, err := Prepare(spec, g, Wiring{Nodes: c.nodes})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := run.Run(); err == nil || !strings.Contains(err.Error(), "weights sum to 0") {
			t.Fatalf("%s: Run = %v, want the engine panic as an error", c.name, err)
		}
		rank, err := PrepareRank(spec, g, c.rank, Wiring{Nodes: c.nodes})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rank.RunNode(transport.NewInProcGroup(c.nodes)[c.rank]); err == nil || !strings.Contains(err.Error(), "weights sum to 0") {
			t.Fatalf("%s: RunNode = %v, want the engine panic as an error", c.name, err)
		}
	}
}

// TestCheckpointRules: a checkpoint directory needs an interval of at
// least 1, and a resume that finds no checkpoint says so with
// ErrNoCheckpoint, for a whole run and for one rank.
func TestCheckpointRules(t *testing.T) {
	g := gen.UniformDegree(50, 4, 1)
	spec := Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 5}, Seed: 1}
	dir := t.TempDir()
	if _, err := Prepare(spec, g, Wiring{CheckpointDir: dir}); err == nil || !strings.Contains(err.Error(), "checkpoint interval 0") {
		t.Fatalf("Prepare with interval 0 = %v, want an interval error", err)
	}
	spec.CheckpointEvery = 4
	if _, err := Prepare(spec, g, Wiring{CheckpointDir: dir, Resume: true}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Prepare resume = %v, want ErrNoCheckpoint", err)
	}
	if _, err := PrepareRank(spec, g, 1, Wiring{CheckpointDir: dir, Resume: true}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("PrepareRank resume = %v, want ErrNoCheckpoint", err)
	}
}

// assertSamePaths requires bit-identical walks.
func assertSamePaths(t *testing.T, name string, want, got [][]graph.VertexID) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: path count %d != %d", name, len(got), len(want))
	}
	for w := range want {
		a, b := want[w], got[w]
		if len(a) != len(b) {
			t.Fatalf("%s: walker %d: length %d != %d", name, w, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: walker %d diverged at step %d: %d != %d", name, w, i, b[i], a[i])
			}
		}
	}
}
