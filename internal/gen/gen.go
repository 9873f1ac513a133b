// Package gen builds the synthetic graphs used by the evaluation. The
// paper's topology-sensitivity study (§7.3) uses exactly these families:
// uniform-degree graphs, truncated power-law graphs, and uniform graphs
// with injected hotspots. The package also provides R-MAT and Erdős–Rényi
// generators, small deterministic fixtures, and weight/type assigners for
// the biased and meta-path experiments.
//
// All generators are deterministic functions of their seed.
package gen

import (
	"fmt"
	"math"

	"knightking/internal/graph"
	"knightking/internal/rng"
)

// UniformDegree returns an undirected graph on n vertices where every
// vertex has degree (approximately, exactly when n*d is even and no
// self-pairings occur) d, built with the configuration model: each vertex
// contributes d stubs, stubs are shuffled and paired. Self-loops are
// dropped, so realized degrees can be slightly below d.
func UniformDegree(n, d int, seed uint64) *graph.Graph {
	if n <= 0 || d < 0 {
		panic(fmt.Sprintf("gen: UniformDegree(%d, %d) invalid", n, d))
	}
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = d
	}
	return configurationModel(degrees, seed)
}

// TruncatedPowerLaw returns an undirected graph whose degree sequence
// follows a power law with the given exponent on [minDeg, cap]. Increasing
// cap with fixed exponent raises skew much faster than it raises the mean,
// which is the knob Figure 6b sweeps.
func TruncatedPowerLaw(n, minDeg, cap int, alpha float64, seed uint64) *graph.Graph {
	if n <= 0 || minDeg < 1 || cap < minDeg {
		panic(fmt.Sprintf("gen: TruncatedPowerLaw(%d, %d, %d) invalid", n, minDeg, cap))
	}
	r := rng.New(seed)
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = r.PowerLaw(minDeg, cap, alpha)
	}
	return configurationModel(degrees, seed+1)
}

// Hotspot returns a uniform-degree graph with numHot extra high-degree
// vertices appended, each connected (undirected) to hotDegree uniformly
// random base vertices. This isolates the hotspot effect of Figure 6c: a
// few ultra-popular vertices in an otherwise regular graph.
func Hotspot(n, d, numHot, hotDegree int, seed uint64) *graph.Graph {
	if n <= 0 || numHot < 0 || hotDegree < 0 {
		panic("gen: Hotspot invalid arguments")
	}
	total := n + numHot
	degrees := make([]int, total)
	for i := 0; i < n; i++ {
		degrees[i] = d
	}
	base := configurationModelEdges(degrees[:n], seed)
	b := graph.NewBuilder(total).SetUndirected(true).SetDedup(true).Grow(len(base) + numHot*hotDegree)
	for _, e := range base {
		b.AddEdge(e[0], e[1])
	}
	if hotDegree > n {
		panic("gen: Hotspot hotDegree exceeds base vertex count")
	}
	r := rng.New(seed ^ 0x4057) // distinct stream for hub wiring
	seen := make(map[graph.VertexID]bool, hotDegree)
	for h := 0; h < numHot; h++ {
		hub := graph.VertexID(n + h)
		clear(seen)
		for len(seen) < hotDegree {
			tgt := graph.VertexID(r.Intn(n))
			if seen[tgt] {
				continue
			}
			seen[tgt] = true
			b.AddEdge(hub, tgt)
		}
	}
	return b.Build()
}

// ErdosRenyi returns an undirected G(n, m) graph with m uniformly random
// edges (self-loops excluded, parallel edges possible).
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	if n <= 1 || m < 0 {
		panic("gen: ErdosRenyi invalid arguments")
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n).SetUndirected(true).SetDedup(true)
	for i := 0; i < m; i++ {
		u := graph.VertexID(r.Intn(n))
		v := graph.VertexID(r.Intn(n))
		for u == v {
			v = graph.VertexID(r.Intn(n))
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RMAT returns an undirected R-MAT graph with 2^scale vertices and
// edgeFactor*2^scale edges, using the standard (a, b, c, d) quadrant
// probabilities. R-MAT graphs have the heavy-tailed degree distribution
// and community structure of real social networks, which makes them the
// stand-ins for Twitter/Friendster-like inputs in the benchmarks.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	if scale < 1 || scale > 30 || edgeFactor < 1 {
		panic("gen: RMAT invalid arguments")
	}
	d := 1 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < 0 {
		panic("gen: RMAT probabilities must be non-negative and sum <= 1")
	}
	n := 1 << scale
	m := edgeFactor * n
	r := rng.New(seed)
	bld := graph.NewBuilder(n).SetUndirected(true).SetDedup(true)
	for i := 0; i < m; i++ {
		u, v := rmatEdge(r, scale, a, b, c)
		if u == v {
			continue
		}
		bld.AddEdge(u, v)
	}
	return bld.Build()
}

func rmatEdge(r *rng.Rand, scale int, a, b, c float64) (graph.VertexID, graph.VertexID) {
	var u, v uint32
	for bit := 0; bit < scale; bit++ {
		x := r.Float64()
		switch {
		case x < a:
			// top-left quadrant: no bits set
		case x < a+b:
			v |= 1 << bit
		case x < a+b+c:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return u, v
}

// Ring returns the undirected cycle on n vertices.
func Ring(n int, _ uint64) *graph.Graph {
	if n < 3 {
		panic("gen: Ring requires n >= 3")
	}
	b := graph.NewBuilder(n).SetUndirected(true).SetDedup(true)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return b.Build()
}

// Complete returns the undirected complete graph on n vertices.
func Complete(n int) *graph.Graph {
	if n < 1 {
		panic("gen: Complete requires n >= 1")
	}
	b := graph.NewBuilder(n).SetUndirected(true).SetDedup(true)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	return b.Build()
}

// Star returns the undirected star with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	if n < 2 {
		panic("gen: Star requires n >= 2")
	}
	b := graph.NewBuilder(n).SetUndirected(true).SetDedup(true)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	return b.Build()
}

// configurationModel pairs stubs uniformly at random and returns the
// resulting undirected simple-ish multigraph (self-pairings dropped).
func configurationModel(degrees []int, seed uint64) *graph.Graph {
	edges := configurationModelEdges(degrees, seed)
	b := graph.NewBuilder(len(degrees)).SetUndirected(true).SetDedup(true).Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func configurationModelEdges(degrees []int, seed uint64) [][2]graph.VertexID {
	total := 0
	for _, d := range degrees {
		total += d
	}
	stubs := make([]graph.VertexID, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.VertexID(v))
		}
	}
	// The Fisher-Yates shuffle of rng.Shuffle, draw for draw, without its
	// per-swap call.
	r := rng.New(seed)
	for i := len(stubs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	edges := make([][2]graph.VertexID, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue // drop self-pairings
		}
		edges = append(edges, [2]graph.VertexID{u, v})
	}
	return edges
}

// WithUniformWeights returns g's adjacency, shared rather than copied,
// with every undirected edge given a weight drawn uniformly from [lo, hi).
// Weights are symmetric: the two stored directions of an undirected edge
// receive the same weight (derived from a hash of the unordered endpoint
// pair), matching the paper's "assigning edge weight as a real number
// randomly sampled from [1, 5)".
func WithUniformWeights(g *graph.Graph, lo, hi float32, seed uint64) *graph.Graph {
	return reweight(g, func(u, v graph.VertexID) float32 {
		return lo + (hi-lo)*pairUnitFloat(u, v, seed)
	})
}

// WithPowerLawWeights returns g's adjacency with symmetric edge weights
// following a power-law distribution on [1, wMax]: most edges light, a few
// heavy. Figure 8 sweeps wMax under both uniform and power-law assignment.
func WithPowerLawWeights(g *graph.Graph, wMax float32, alpha float64, seed uint64) *graph.Graph {
	// Inverse-transform of p(w) ~ w^-alpha on [1, wMax].
	a := 1 - alpha
	loP, hiP, inv := 1.0, math.Pow(float64(wMax), a), 1/a
	return reweight(g, func(u, v graph.VertexID) float32 {
		x := pairUnitFloat(u, v, seed)
		w := math.Pow(loP+(hiP-loP)*float64(x), inv)
		if w < 1 {
			w = 1
		}
		if w > float64(wMax) {
			w = float64(wMax)
		}
		return float32(w)
	})
}

// WithTypes returns g's adjacency and weights with every undirected edge
// assigned a symmetric type in [0, numTypes), for meta-path workloads.
func WithTypes(g *graph.Graph, numTypes int, seed uint64) *graph.Graph {
	if numTypes <= 0 {
		panic("gen: WithTypes requires numTypes > 0")
	}
	return g.Relabel(true, func(src graph.VertexID, e graph.Edge) (float32, int32) {
		return e.Weight, int32(pairHash(src, e.Dst, seed) % uint64(numTypes))
	})
}

// reweight gives every edge u->v of g the weight weightOf(u, v) and drops
// its types, over g's own offsets and destinations.
func reweight(g *graph.Graph, weightOf func(u, v graph.VertexID) float32) *graph.Graph {
	return g.Relabel(false, func(src graph.VertexID, e graph.Edge) (float32, int32) {
		return weightOf(src, e.Dst), 0
	})
}

// pairHash hashes the unordered pair {u, v} with the seed, so both stored
// directions of an undirected edge map to the same value.
func pairHash(u, v graph.VertexID, seed uint64) uint64 {
	a, b := uint64(u), uint64(v)
	if a > b {
		a, b = b, a
	}
	x := seed ^ (a*0x9e3779b97f4a7c15 + b)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func pairUnitFloat(u, v graph.VertexID, seed uint64) float32 {
	return float32(pairHash(u, v, seed)>>11) / float32(uint64(1)<<53)
}

// PlantedPartition returns a stochastic block model graph: communities
// dense inside (inDegree intra-community edges per vertex) and sparse
// across (outDegree inter-community edges per vertex). Community i owns
// vertices [i*perComm, (i+1)*perComm). Used by embedding-quality
// evaluations, where walks must recover the planted structure.
func PlantedPartition(communities, perComm, inDegree, outDegree int, seed uint64) *graph.Graph {
	if communities < 1 || perComm < 2 || inDegree < 0 || outDegree < 0 {
		panic("gen: PlantedPartition invalid arguments")
	}
	r := rng.New(seed)
	n := communities * perComm
	b := graph.NewBuilder(n).SetUndirected(true).SetDedup(true)
	for v := 0; v < n; v++ {
		comm := v / perComm
		for k := 0; k < inDegree; k++ {
			u := comm*perComm + r.Intn(perComm)
			if u != v {
				b.AddEdge(graph.VertexID(v), graph.VertexID(u))
			}
		}
		for k := 0; k < outDegree; k++ {
			u := r.Intn(n)
			if u/perComm != comm {
				b.AddEdge(graph.VertexID(v), graph.VertexID(u))
			}
		}
	}
	return b.Build()
}
