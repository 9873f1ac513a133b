package bench

import (
	"net"
	"sync"
	"time"

	"knightking/internal/alg"
	"knightking/internal/cluster"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/rng"
	"knightking/internal/sampling"
	"knightking/internal/stats"
	"knightking/internal/transport"
)

func init() {
	register("abl-sampler", "ablation: alias vs ITS static sampling (paper §3 tradeoff)", AblSampler)
	register("abl-partition", "ablation: 1-D partition balance weight alpha (paper §6.1)", AblPartition)
	register("abl-fallback", "ablation: rejection-to-full-scan fallback threshold", AblFallback)
	register("abl-transport", "ablation: in-process exchange vs real TCP loopback", AblTransport)
}

// AblSamplerRow times one static sampling structure.
type AblSamplerRow struct {
	Kind      string
	SetupSec  float64
	WalkSec   float64
	NsPerStep float64
}

// AblSamplerData measures alias rows vs per-vertex ITS tables on a
// weighted skewed graph. The paper picks alias (O(1) draws, same O(n)
// build); ITS pays O(log n) per draw. The engine only takes alias rows,
// so both kinds run in one sampling-layer walk loop: one walker per
// vertex starting there, the same length, each step a draw and a move to
// the drawn edge's destination. Setup is the table build alone.
func AblSamplerData(o Options) ([]AblSamplerRow, error) {
	o = o.defaults()
	g := gen.WithUniformWeights(twitterLike(o, o.Seed), 1, 5, o.Seed+1)
	nv := g.NumVertices()

	start := time.Now()
	rows := make([][]sampling.AliasEntry, nv)
	slab := make([]sampling.AliasEntry, g.NumEdges())
	var scratch sampling.AliasScratch
	for v := range rows {
		id := graph.VertexID(v)
		deg := g.Degree(id)
		rows[v], slab = slab[:deg:deg], slab[deg:]
		if deg == 0 {
			continue
		}
		if err := sampling.BuildAliasRow(rows[v], g.Weights(id), g.Neighbors(id), &scratch); err != nil {
			return nil, err
		}
	}
	aliasSetup := time.Since(start)

	start = time.Now()
	its := make([]*sampling.ITS, nv)
	for v := range its {
		if g.Degree(graph.VertexID(v)) == 0 {
			continue
		}
		var err error
		if its[v], err = sampling.NewITS(g.Weights(graph.VertexID(v))); err != nil {
			return nil, err
		}
	}
	itsSetup := time.Since(start)

	// step returns the next vertex, or false at a dead end.
	walk := func(kind string, setup time.Duration, step func(v graph.VertexID, r *rng.Rand) (graph.VertexID, bool)) AblSamplerRow {
		steps, start := 0, time.Now()
		for id := 0; id < nv; id++ {
			r := rng.Stream(o.Seed, uint64(id))
			v, ok := graph.VertexID(id), true
			for k := 0; k < o.walkLength(); k++ {
				if v, ok = step(v, &r); !ok {
					break
				}
				steps++
			}
		}
		d := time.Since(start)
		return AblSamplerRow{Kind: kind, SetupSec: setup.Seconds(), WalkSec: d.Seconds(),
			NsPerStep: float64(d.Nanoseconds()) / float64(max(steps, 1))}
	}
	return []AblSamplerRow{
		walk("alias", aliasSetup, func(v graph.VertexID, r *rng.Rand) (graph.VertexID, bool) {
			row := rows[v]
			if len(row) == 0 {
				return v, false
			}
			return row[sampling.DrawAlias(row, r)].Dst, true
		}),
		walk("its", itsSetup, func(v graph.VertexID, r *rng.Rand) (graph.VertexID, bool) {
			if its[v] == nil {
				return v, false
			}
			return g.Neighbors(v)[its[v].Sample(r)], true
		}),
	}, nil
}

// AblSampler prints the sampler ablation.
func AblSampler(o Options) error {
	o = o.defaults()
	rows, err := AblSamplerData(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("sampler", "setup(s)", "walk(s)", "ns/step")
	for _, r := range rows {
		t.AddRow(r.Kind, r.SetupSec, r.WalkSec, r.NsPerStep)
	}
	return t.Write(o.Out)
}

// AblPartitionRow reports balance and runtime under one alpha.
type AblPartitionRow struct {
	Alpha float64
	// MaxOverMean is max node load / mean node load under the |V|,|E|
	// estimate with this alpha (1.0 = perfectly balanced).
	MaxOverMean float64
	WalkSec     float64
}

// AblPartitionData sweeps the partitioner's vertex-vs-edge weight alpha on
// a skewed graph: very small alpha balances edges only, very large alpha
// balances vertex counts only; the paper's default weighs them equally.
func AblPartitionData(o Options) ([]AblPartitionRow, error) {
	o = o.defaults()
	g := twitterLike(o, o.Seed)
	length := o.walkLength()
	var rows []AblPartitionRow
	for _, alpha := range []float64{0.01, 1, 100} {
		part := cluster.Partition1D(g, o.Nodes, alpha)
		var maxLoad, total float64
		for rank := 0; rank < o.Nodes; rank++ {
			// Evaluate balance under the paper's canonical alpha=1 load
			// estimate regardless of the alpha used for splitting.
			load := part.LoadEstimate(g, rank, 1)
			total += load
			if load > maxLoad {
				maxLoad = load
			}
		}
		start := time.Now()
		_, err := core.Run(core.Config{
			Graph:          g,
			Algorithm:      alg.DeepWalk(length, false),
			NumNodes:       o.Nodes,
			Seed:           o.Seed,
			PartitionAlpha: alpha,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblPartitionRow{
			Alpha:       alpha,
			MaxOverMean: maxLoad / (total / float64(o.Nodes)),
			WalkSec:     time.Since(start).Seconds(),
		})
	}
	return rows, nil
}

// AblPartition prints the partitioner ablation.
func AblPartition(o Options) error {
	o = o.defaults()
	rows, err := AblPartitionData(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("alpha", "max/mean load", "walk(s)")
	for _, r := range rows {
		t.AddRow(r.Alpha, r.MaxOverMean, r.WalkSec)
	}
	return t.Write(o.Out)
}

// AblFallbackRow reports one fallback-threshold setting.
type AblFallbackRow struct {
	Threshold    int
	WalkSec      float64
	EdgesPerStep float64
}

// AblFallbackData sweeps the rejection-to-full-scan fallback threshold on
// a meta-path workload with rare edge types (low acceptance mass), where
// too high a threshold wastes darts and too low degrades to the baseline's
// full scans.
func AblFallbackData(o Options) ([]AblFallbackRow, error) {
	o = o.defaults()
	g := gen.WithTypes(twitterLike(o, o.Seed), 12, o.Seed+3) // rare types
	schemes := metaPathSchemes(12, 6, 4, o.Seed+4)
	length := o.walkLength()
	var rows []AblFallbackRow
	for _, threshold := range []int{2, 16, 64, 512} {
		a := alg.MetaPath(schemes, length, false)
		a.FallbackTrials = threshold
		start := time.Now()
		res, err := core.Run(core.Config{
			Graph:     g,
			Algorithm: a,
			NumNodes:  o.Nodes,
			Seed:      o.Seed,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblFallbackRow{
			Threshold:    threshold,
			WalkSec:      time.Since(start).Seconds(),
			EdgesPerStep: res.Counters.EdgesPerStep(),
		})
	}
	return rows, nil
}

// AblFallback prints the fallback ablation.
func AblFallback(o Options) error {
	o = o.defaults()
	rows, err := AblFallbackData(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("fallback threshold", "walk(s)", "edges/step")
	for _, r := range rows {
		t.AddRow(r.Threshold, r.WalkSec, r.EdgesPerStep)
	}
	return t.Write(o.Out)
}

// AblTransportRow compares transports for one algorithm.
type AblTransportRow struct {
	Algorithm string
	Transport string
	WalkSec   float64
	Messages  int64
	MegaBytes float64
}

// AblTransportData runs the same walks over the in-process exchange and
// over real TCP loopback, quantifying the wire cost the simulated cluster
// hides. Walk results are identical by construction (the engine is
// transport-agnostic); only time and bytes differ.
func AblTransportData(o Options) ([]AblTransportRow, error) {
	o = o.defaults()
	g := twitterLike(o, o.Seed)
	length := o.walkLength()
	algs := []struct {
		name string
		make func() *core.Algorithm
	}{
		{"DeepWalk", func() *core.Algorithm { return alg.DeepWalk(length, false) }},
		{"node2vec", func() *core.Algorithm {
			return alg.Node2Vec(alg.Node2VecParams{
				P: 2, Q: 0.5, Length: length, LowerBound: true, FoldOutlier: true,
			})
		}},
	}
	var rows []AblTransportRow
	for _, a := range algs {
		for _, kind := range []string{"inproc", "tcp"} {
			cfg := core.Config{
				Graph:     g,
				Algorithm: a.make(),
				NumNodes:  o.Nodes,
				Seed:      o.Seed,
			}
			if kind == "tcp" {
				eps, err := tcpLoopbackGroup(o.Nodes)
				if err != nil {
					return nil, err
				}
				cfg.Endpoints = eps
				defer closeAll(eps)
			}
			start := time.Now()
			res, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblTransportRow{
				Algorithm: a.name,
				Transport: kind,
				WalkSec:   time.Since(start).Seconds(),
				Messages:  res.Counters.Messages,
				MegaBytes: float64(res.Counters.BytesSent) / 1e6,
			})
		}
	}
	return rows, nil
}

// AblTransport prints the transport ablation.
func AblTransport(o Options) error {
	o = o.defaults()
	rows, err := AblTransportData(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("algorithm", "transport", "walk(s)", "messages", "payload MB")
	for _, r := range rows {
		t.AddRow(r.Algorithm, r.Transport, r.WalkSec, r.Messages, r.MegaBytes)
	}
	return t.Write(o.Out)
}

// tcpLoopbackGroup brings up an n-rank TCP mesh on 127.0.0.1.
func tcpLoopbackGroup(n int) ([]transport.Endpoint, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		lns = append(lns, ln)
	}
	for _, ln := range lns {
		ln.Close()
	}
	eps := make([]transport.Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
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
			closeAll(eps)
			return nil, err
		}
	}
	return eps, nil
}

func closeAll(eps []transport.Endpoint) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}
