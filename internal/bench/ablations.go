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

// AblSamplerRow compares the two static sampling structures for one
// algorithm.
type AblSamplerRow struct {
	Algorithm string
	Kind      string
	SetupSec  float64
	WalkSec   float64
}

// AblSamplerData measures alias vs ITS on a weighted skewed graph, for a
// static walk (sampler on the hot path every step) and for biased
// node2vec (sampler draws rejection candidates). The paper picks alias
// (O(1) draws, same O(n) build); ITS pays O(log n) per draw. The engine
// itself only builds alias tables, so each row hands it prebuilt tables
// of its kind through Config.Samplers; the setup column is that table
// build plus the engine's own set-up.
func AblSamplerData(o Options) ([]AblSamplerRow, error) {
	o = o.defaults()
	g := gen.WithUniformWeights(twitterLike(o, o.Seed), 1, 5, o.Seed+1)
	length := o.walkLength()
	var rows []AblSamplerRow
	for _, kind := range []struct {
		name  string
		build func([]float32) (sampling.StaticSampler, error)
	}{
		{"alias", func(w []float32) (sampling.StaticSampler, error) { return sampling.NewAlias(w) }},
		{"its", func(w []float32) (sampling.StaticSampler, error) { return sampling.NewITS(w) }},
	} {
		for _, a := range []struct {
			name string
			make func() *core.Algorithm
		}{
			{"DeepWalk(biased)", func() *core.Algorithm { return alg.DeepWalk(length, true) }},
			{"node2vec(biased)", func() *core.Algorithm {
				return alg.Node2Vec(alg.Node2VecParams{
					P: 2, Q: 0.5, Length: length, Biased: true,
					LowerBound: true, FoldOutlier: true,
				})
			}},
		} {
			start := time.Now()
			tables, err := buildTables(g, kind.build)
			if err != nil {
				return nil, err
			}
			build := time.Since(start)
			res, err := core.Run(core.Config{
				Graph:     g,
				Algorithm: a.make(),
				NumNodes:  o.Nodes,
				Seed:      o.Seed,
				Samplers:  tables,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblSamplerRow{
				Algorithm: a.name,
				Kind:      kind.name,
				SetupSec:  (build + res.SetupDuration).Seconds(),
				WalkSec:   res.Duration.Seconds(),
			})
		}
	}
	return rows, nil
}

// staticTables is a core.SamplerProvider over one prebuilt edge-weight
// table per vertex (nil for zero-degree vertices).
type staticTables []sampling.StaticSampler

func (t staticTables) StaticSampler(v graph.VertexID) sampling.StaticSampler { return t[v] }

// buildTables builds every vertex's edge-weight table with build.
func buildTables(g *graph.Graph, build func([]float32) (sampling.StaticSampler, error)) (staticTables, error) {
	t := make(staticTables, g.NumVertices())
	for v := range t {
		if g.Degree(graph.VertexID(v)) == 0 {
			continue
		}
		s, err := build(g.Weights(graph.VertexID(v)))
		if err != nil {
			return nil, err
		}
		t[v] = s
	}
	return t, nil
}

// AblSampler prints the sampler ablation.
func AblSampler(o Options) error {
	o = o.defaults()
	rows, err := AblSamplerData(o)
	if err != nil {
		return err
	}
	t := stats.NewTable("algorithm", "sampler", "setup(s)", "walk(s)")
	for _, r := range rows {
		t.AddRow(r.Algorithm, r.Kind, r.SetupSec, r.WalkSec)
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
