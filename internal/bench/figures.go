package bench

import (
	"fmt"

	"knightking/internal/alg"
	"knightking/internal/baseline"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/obs"
	"knightking/internal/stats"
)

func init() {
	register("fig5", "active-set tail: random walk vs BFS (paper Figure 5)", Fig5)
	register("fig6a", "sampling overhead vs uniform degree (paper Figure 6a)", Fig6a)
	register("fig6b", "sampling overhead vs power-law degree cap (paper Figure 6b)", Fig6b)
	register("fig6c", "sampling overhead vs hotspot count (paper Figure 6c)", Fig6c)
	register("fig7", "node2vec scalability with cluster size (paper Figure 7)", Fig7)
	register("fig8", "decoupled vs mixed static/dynamic components (paper Figure 8)", Fig8)
	register("fig9", "straggler-aware light-mode scheduling (paper Figure 9)", Fig9)
}

// Fig5Row is one iteration's active-set sizes.
type Fig5Row struct {
	Iteration  int
	BFSActive  int64 // 0 once BFS has finished
	WalkActive int64
}

// Fig5Data contrasts the BFS frontier with a termination-probability
// walk's active walker count, per iteration, on the LiveJournal stand-in.
func Fig5Data(o Options) ([]Fig5Row, error) {
	o = o.defaults()
	g := Standins()[0].Build(o, o.Seed)

	bfs, err := baseline.BFS(g, 0)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry(nil)
	_, err = core.Run(core.Config{
		Graph:      g,
		Algorithm:  alg.PPR(0.0125, false, 0), // the paper's long-walk PPR setting
		NumWalkers: g.NumVertices(),
		Seed:       o.Seed,
		Observer:   reg,
	})
	if err != nil {
		return nil, err
	}
	// Rank 0's spans, in superstep order, carry the live count agreed at
	// each barrier.
	var active []int64
	for _, sp := range reg.Spans() {
		if sp.Rank == 0 {
			active = append(active, sp.GlobalWalkers)
		}
	}
	n := len(active)
	if len(bfs.FrontierSizes) > n {
		n = len(bfs.FrontierSizes)
	}
	rows := make([]Fig5Row, n)
	for i := 0; i < n; i++ {
		rows[i].Iteration = i + 1
		if i < len(bfs.FrontierSizes) {
			rows[i].BFSActive = bfs.FrontierSizes[i]
		}
		if i < len(active) {
			rows[i].WalkActive = active[i]
		}
	}
	return rows, nil
}

// Fig5 prints the Figure 5 reproduction (a sampled series to keep the
// table readable).
func Fig5(o Options) error {
	o = o.defaults()
	rows, err := Fig5Data(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("iteration", "bfs frontier", "active walkers")
	stride := 1
	if len(rows) > 40 {
		stride = len(rows) / 40
	}
	for i := 0; i < len(rows); i += stride {
		t.AddRow(rows[i].Iteration, rows[i].BFSActive, rows[i].WalkActive)
	}
	last := rows[len(rows)-1]
	if (len(rows)-1)%stride != 0 {
		t.AddRow(last.Iteration, last.BFSActive, last.WalkActive)
	}
	if err := t.Write(o.Out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(o.Out, "BFS completed in %d iterations; the walk's tail ran %d iterations\n",
		bfsIters(rows), rows[len(rows)-1].Iteration)
	return err
}

func bfsIters(rows []Fig5Row) int {
	n := 0
	for _, r := range rows {
		if r.BFSActive > 0 {
			n = r.Iteration
		}
	}
	return n
}

// Fig6Row is one topology point of Figure 6.
type Fig6Row struct {
	X                float64 // degree, cap, or hotspot count
	AvgDegree        float64
	FullScanPerStep  float64
	RejectionPerStep float64
}

// fig6Point measures both systems' edges/step for unbiased node2vec
// (p=2, q=0.5, lower bound enabled) on one graph.
func fig6Point(o Options, g *graph.Graph, x float64, walkLen int) (Fig6Row, error) {
	base, err := runBaseline(g, baseline.Config{
		Graph:    g,
		Seed:     o.Seed,
		MaxSteps: walkLen,
		Dynamic:  baseline.Node2VecDynamic(2, 0.5),
	}, 0.1)
	if err != nil {
		return Fig6Row{}, err
	}
	kk, err := runKK(g, alg.Node2Vec(alg.Node2VecParams{
		P: 2, Q: 0.5, Length: walkLen, LowerBound: true, FoldOutlier: true,
	}), g.NumVertices(), o.Nodes, o.Seed, true)
	if err != nil {
		return Fig6Row{}, err
	}
	return Fig6Row{
		X:                x,
		AvgDegree:        g.Stats().Mean,
		FullScanPerStep:  base.EdgesPerStep,
		RejectionPerStep: kk.EdgesPerStep,
	}, nil
}

// Fig6aData sweeps uniform degree (paper: 10M vertices, here scaled).
func Fig6aData(o Options) ([]Fig6Row, error) {
	o = o.defaults()
	n := o.scaled(8000)
	walkLen := o.walkLength() / 4
	if walkLen < 4 {
		walkLen = 4
	}
	degrees := []int{10, 30, 100, 300, 1000}
	if o.Quick {
		degrees = []int{10, 50}
	}
	var rows []Fig6Row
	for i, d := range degrees {
		if d >= n {
			continue
		}
		g := gen.UniformDegree(n, d, o.Seed+uint64(i))
		row, err := fig6Point(o, g, float64(d), walkLen)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6a prints the Figure 6a reproduction.
func Fig6a(o Options) error { return printFig6(o, "uniform degree", Fig6aData) }

// Fig6bData sweeps the truncated power-law degree cap.
func Fig6bData(o Options) ([]Fig6Row, error) {
	o = o.defaults()
	n := o.scaled(16000)
	walkLen := o.walkLength() / 4
	if walkLen < 4 {
		walkLen = 4
	}
	caps := []int{100, 400, 1600, 6400, 12800}
	if o.Quick {
		caps = []int{8, n / 4}
	}
	var rows []Fig6Row
	for i, c := range caps {
		if c >= n {
			continue
		}
		g := gen.TruncatedPowerLaw(n, 5, c, 2.0, o.Seed+uint64(i))
		row, err := fig6Point(o, g, float64(c), walkLen)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6b prints the Figure 6b reproduction.
func Fig6b(o Options) error { return printFig6(o, "degree cap", Fig6bData) }

// Fig6cData sweeps the number of injected million-edge-scale hotspots on a
// uniform degree-100 graph (paper Figure 6c, scaled).
func Fig6cData(o Options) ([]Fig6Row, error) {
	o = o.defaults()
	n := o.scaled(8000)
	d := 100
	hotDeg := n / 8
	walkLen := o.walkLength() / 4
	if walkLen < 4 {
		walkLen = 4
	}
	hots := []int{0, 1, 2, 4, 8}
	if o.Quick {
		hots = []int{0, 2}
		d = 20
	}
	var rows []Fig6Row
	for i, h := range hots {
		g := gen.Hotspot(n, d, h, hotDeg, o.Seed+uint64(i))
		row, err := fig6Point(o, g, float64(h), walkLen)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6c prints the Figure 6c reproduction.
func Fig6c(o Options) error { return printFig6(o, "hotspots", Fig6cData) }

func printFig6(o Options, xName string, data func(Options) ([]Fig6Row, error)) error {
	o = o.defaults()
	rows, err := data(o)
	if err != nil {
		return err
	}
	t := stats.NewTable(xName, "avg degree", "full-scan edges/step", "rejection edges/step")
	for _, r := range rows {
		t.AddRow(r.X, r.AvgDegree, r.FullScanPerStep, r.RejectionPerStep)
	}
	return t.Write(o.Out)
}

// Fig7Row is one cluster-size point.
type Fig7Row struct {
	Nodes     int
	KnightSec float64
	// NormalizedToOne is KnightSec / single-node KnightSec (the paper
	// normalizes each system to its own single-node run).
	NormalizedToOne float64
	// BaselineRatio is the single-node full-scan baseline time over this
	// run's time (the paper reports a 20.9× single-node advantage).
	BaselineRatio float64
}

// Fig7Data measures node2vec wall time while growing the simulated
// cluster, on the Friendster stand-in.
func Fig7Data(o Options) ([]Fig7Row, error) {
	o = o.defaults()
	g := Standins()[1].Build(o, o.Seed)
	length := o.walkLength()
	nodesList := []int{1, 2, 4, 8}
	if o.Quick {
		nodesList = []int{1, 2}
	}
	base, err := runBaseline(g, baseline.Config{
		Graph:    g,
		Seed:     o.Seed,
		MaxSteps: length,
		Dynamic:  baseline.Node2VecDynamic(2, 0.5),
	}, 0.05)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	var oneNode float64
	for _, nodes := range nodesList {
		m, err := runKK(g, alg.Node2Vec(alg.Node2VecParams{
			P: 2, Q: 0.5, Length: length, LowerBound: true, FoldOutlier: true,
		}), g.NumVertices(), nodes, o.Seed, true)
		if err != nil {
			return nil, err
		}
		if nodes == nodesList[0] {
			oneNode = m.Seconds
		}
		rows = append(rows, Fig7Row{
			Nodes:           nodes,
			KnightSec:       m.Seconds,
			NormalizedToOne: m.Seconds / oneNode,
			BaselineRatio:   base.Seconds / m.Seconds,
		})
	}
	return rows, nil
}

// Fig7 prints the Figure 7 reproduction.
func Fig7(o Options) error {
	o = o.defaults()
	rows, err := Fig7Data(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("nodes", "knightking(s)", "normalized", "speedup vs full-scan")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.KnightSec, r.NormalizedToOne, r.BaselineRatio)
	}
	if err := t.Write(o.Out); err != nil {
		return err
	}
	_, err = fmt.Fprintln(o.Out, "note: logical nodes share one machine here; wall-clock scaling with real hardware parallelism is not reproducible on a single host (see EXPERIMENTS.md)")
	return err
}

// Fig8Row is one (weight distribution, max weight) point.
type Fig8Row struct {
	WeightDist      string
	MaxWeight       float64
	MixedSec        float64
	DecoupledSec    float64
	MixedTrials     float64 // trials per step
	DecoupledTrials float64
}

// Fig8Data compares the decoupled Ps×Pd formulation against folding the
// weight into Pd ("mixed"), sweeping max edge weight under uniform and
// power-law weight assignment.
func Fig8Data(o Options) ([]Fig8Row, error) {
	o = o.defaults()
	base := twitterLike(o, o.Seed)
	length := o.walkLength() / 2
	if length < 5 {
		length = 5
	}
	maxWeights := []float32{2, 8, 32, 128}
	if o.Quick {
		maxWeights = []float32{2, 16}
	}
	var rows []Fig8Row
	for _, dist := range []string{"uniform", "powerlaw"} {
		for _, mw := range maxWeights {
			var g *graph.Graph
			if dist == "uniform" {
				g = gen.WithUniformWeights(base, 1, mw, o.Seed+5)
			} else {
				g = gen.WithPowerLawWeights(base, mw, 2.0, o.Seed+5)
			}
			mixed, err := runKK(g, alg.Node2VecMixed(alg.Node2VecParams{
				P: 2, Q: 0.5, Length: length,
			}), g.NumVertices(), o.Nodes, o.Seed, true)
			if err != nil {
				return nil, err
			}
			dec, err := runKK(g, alg.Node2Vec(alg.Node2VecParams{
				P: 2, Q: 0.5, Length: length, Biased: true,
				LowerBound: true, FoldOutlier: true,
			}), g.NumVertices(), o.Nodes, o.Seed, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8Row{
				WeightDist:      dist,
				MaxWeight:       float64(mw),
				MixedSec:        mixed.Seconds,
				DecoupledSec:    dec.Seconds,
				MixedTrials:     mixed.TrialsPerStep,
				DecoupledTrials: dec.TrialsPerStep,
			})
		}
	}
	return rows, nil
}

// Fig8 prints the Figure 8 reproduction.
func Fig8(o Options) error {
	o = o.defaults()
	rows, err := Fig8Data(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("weights", "max weight", "mixed(s)", "decoupled(s)", "mixed trials/step", "decoupled trials/step")
	for _, r := range rows {
		t.AddRow(r.WeightDist, r.MaxWeight, r.MixedSec, r.DecoupledSec, r.MixedTrials, r.DecoupledTrials)
	}
	return t.Write(o.Out)
}

// Fig9Row is one (algorithm, graph) light-mode comparison.
type Fig9Row struct {
	Algorithm  string
	Graph      string
	BaseSec    float64 // original scheduler
	LightSec   float64 // straggler-aware scheduler
	ImprovePct float64
}

// Fig9Data measures the straggler-aware scheduling optimization on the two
// long-tail algorithms (PPR with pt=0.149 as in the paper, and node2vec),
// across three graph sizes.
func Fig9Data(o Options) ([]Fig9Row, error) {
	o = o.defaults()
	length := o.walkLength()
	specs := Standins()[:3]
	algs := []struct {
		name string
		make func() *core.Algorithm
	}{
		{"PPR", func() *core.Algorithm { return alg.PPR(0.149, false, 0) }},
		{"node2vec", func() *core.Algorithm {
			return alg.Node2Vec(alg.Node2VecParams{
				P: 2, Q: 0.5, Length: length, LowerBound: true, FoldOutlier: true,
			})
		}},
	}
	var rows []Fig9Row
	for _, a := range algs {
		for _, spec := range specs {
			g := spec.Build(o, o.Seed)
			noLight, err := runKK(g, a.make(), g.NumVertices(), o.Nodes, o.Seed, false)
			if err != nil {
				return nil, err
			}
			light, err := runKK(g, a.make(), g.NumVertices(), o.Nodes, o.Seed, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig9Row{
				Algorithm:  a.name,
				Graph:      spec.Name,
				BaseSec:    noLight.Seconds,
				LightSec:   light.Seconds,
				ImprovePct: 100 * (noLight.Seconds - light.Seconds) / noLight.Seconds,
			})
		}
	}
	return rows, nil
}

// Fig9 prints the Figure 9 reproduction.
func Fig9(o Options) error {
	o = o.defaults()
	rows, err := Fig9Data(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("algorithm", "graph", "base(s)", "light mode(s)", "improvement %")
	for _, r := range rows {
		t.AddRow(r.Algorithm, r.Graph, r.BaseSec, r.LightSec, r.ImprovePct)
	}
	return t.Write(o.Out)
}
