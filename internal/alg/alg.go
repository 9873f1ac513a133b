// Package alg expresses the paper's four representative random walk
// algorithms (§2.2) on the engine's unified transition probability API:
//
//	DeepWalk  — biased/unbiased static walk, fixed length
//	PPR       — biased/unbiased static walk, probabilistic termination
//	MetaPath  — dynamic first-order walk over typed edges
//	Node2Vec  — dynamic second-order walk (the running example)
//
// Each constructor returns a *core.Algorithm ready for core.Run. Spec is
// the front ends' request for one of these programs (plus RWR): kkwalk,
// kkcoord and kkserve all build through it.
package alg

import (
	"fmt"
	"math"
	"sort"

	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/rng"
	"knightking/internal/sampling"
)

// DeepWalk returns the DeepWalk algorithm: a truncated random walk of
// exactly `length` steps. With biased set, the transition probability of an
// edge is proportional to its weight (the extension of [Cochez et al.]);
// otherwise the walk is unbiased.
func DeepWalk(length int, biased bool) *core.Algorithm {
	if length <= 0 {
		panic(fmt.Sprintf("alg: DeepWalk length %d", length))
	}
	return &core.Algorithm{
		Name:     "deepwalk",
		Biased:   biased,
		MaxSteps: length,
	}
}

// PPR returns the random-walk formulation of fully personalized PageRank:
// walkers terminate with probability pt before every step (expected walk
// length 1/pt - 1), optionally weight-biased. maxSteps caps pathological
// walks (0 = uncapped, as in the paper).
func PPR(pt float64, biased bool, maxSteps int) *core.Algorithm {
	if pt <= 0 || pt >= 1 {
		panic(fmt.Sprintf("alg: PPR termination probability %v", pt))
	}
	return &core.Algorithm{
		Name:            "ppr",
		Biased:          biased,
		TerminationProb: pt,
		MaxSteps:        maxSteps,
	}
}

// MetaPath returns the meta-path constrained walk: each walker is randomly
// assigned one of the given schemes (cyclic sequences of edge types) and at
// step k may only follow edges of type scheme[k mod len(scheme)]. Dynamic
// (the eligible edge set changes every step) but first-order (no remote
// state is consulted), so Pd is evaluated locally.
func MetaPath(schemes [][]int32, length int, biased bool) *core.Algorithm {
	if len(schemes) == 0 {
		panic("alg: MetaPath requires at least one scheme")
	}
	for i, s := range schemes {
		if len(s) == 0 {
			panic(fmt.Sprintf("alg: MetaPath scheme %d is empty", i))
		}
	}
	if length <= 0 {
		panic(fmt.Sprintf("alg: MetaPath length %d", length))
	}
	return &core.Algorithm{
		Name:     "metapath",
		Biased:   biased,
		MaxSteps: length,
		InitWalker: func(w *core.Walker, r *rng.Rand) {
			w.Tag = int32(r.Uint64n(uint64(len(schemes))))
		},
		EdgeDynamicComp: func(w *core.Walker, e graph.Edge, _ uint64, _ bool) float64 {
			s := schemes[w.Tag]
			if e.Type == s[int(w.Step)%len(s)] {
				return 1
			}
			return 0
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return 1 },
		// No lower bound: ineligible edges have Pd = 0.
	}
}

// Node2VecParams configures Node2Vec.
type Node2VecParams struct {
	// P is the return parameter: 1/P is the probability weight of
	// revisiting the previous vertex.
	P float64
	// Q is the in-out parameter: 1/Q weighs edges leading "away" from the
	// previous vertex (d_tx = 2).
	Q float64
	// Length is the fixed walk length (80 in the paper's evaluation).
	Length int
	// Biased compounds edge weights as the static component Ps.
	Biased bool
	// LowerBound enables the pre-acceptance optimization (§4.2).
	LowerBound bool
	// FoldOutlier enables outlier folding of the return edge when
	// 1/P exceeds the other Pd values (§4.2).
	FoldOutlier bool
}

// Node2Vec returns the second-order node2vec walk of Grover & Leskovec,
// the paper's running example. The dynamic component depends on the
// distance d between the previous vertex t and the candidate x:
//
//	Pd = 1/P if d = 0 (x is t: the return edge)
//	Pd = 1   if d = 1 (x adjacent to t — resolved by a remote state query)
//	Pd = 1/Q otherwise
//
// The adjacency test t–x is the walker-to-vertex state query that forces
// the engine's two message rounds per superstep.
func Node2Vec(params Node2VecParams) *core.Algorithm {
	if params.P <= 0 || params.Q <= 0 {
		panic(fmt.Sprintf("alg: Node2Vec p=%v q=%v", params.P, params.Q))
	}
	if params.Length <= 0 {
		panic(fmt.Sprintf("alg: Node2Vec length %d", params.Length))
	}
	invP := 1 / params.P
	invQ := 1 / params.Q
	// Bound over the non-return edges (Pd ∈ {1, 1/Q}); the full bound
	// additionally covers the return edge (Pd = 1/P).
	baseBound := math.Max(1, invQ)
	fullBound := math.Max(baseBound, invP)
	folded := params.FoldOutlier && invP > baseBound
	envelope := fullBound
	if folded {
		envelope = baseBound
	}
	lower := math.Min(math.Min(1, invP), invQ)

	a := &core.Algorithm{
		Name:     "node2vec",
		Biased:   params.Biased,
		MaxSteps: params.Length,
		EdgeDynamicComp: func(w *core.Walker, e graph.Edge, result uint64, hasResult bool) float64 {
			if w.Step == 0 {
				// No previous vertex yet: the first step is sampled by Ps
				// alone, expressed as Pd = the full bound so every dart
				// accepts (paper's sample code returns max(1/p, 1, 1/q)).
				return fullBound
			}
			if e.Dst == w.Prev {
				return invP
			}
			if !hasResult {
				panic("alg: node2vec Pd for a non-return edge requires a state query result")
			}
			if result != 0 {
				return 1
			}
			return invQ
		},
		UpperBound: func(*graph.Graph, graph.VertexID) float64 { return envelope },
		PostQuery: func(w *core.Walker, e graph.Edge) (graph.VertexID, uint64, bool) {
			if w.Step == 0 || e.Dst == w.Prev {
				return 0, 0, false // Pd computable locally
			}
			return w.Prev, uint64(e.Dst), true
		},
	}
	if params.LowerBound {
		a.LowerBound = func(*graph.Graph, graph.VertexID) float64 { return lower }
	}
	if folded {
		a.Outliers = func(g *graph.Graph, v graph.VertexID) []sampling.Appendix {
			return []sampling.Appendix{{
				Tag:      0, // the return edge
				WidthUB:  returnEdgeWidthUB(g, v, params.Biased),
				HeightUB: invP - baseBound,
			}}
		}
		a.LocateOutlier = func(g *graph.Graph, v graph.VertexID, w *core.Walker, tag int) int {
			if w.Step == 0 {
				return -1 // no return edge yet
			}
			return edgeIndexOf(g, v, w.Prev)
		}
	}
	return a
}

// returnEdgeWidthUB bounds the static width Ps of the (unknown) return
// edge at v: 1 for unbiased walks, the maximum edge weight for biased.
func returnEdgeWidthUB(g *graph.Graph, v graph.VertexID, biased bool) float64 {
	if !biased {
		return 1
	}
	return g.MaxWeight(v)
}

// edgeIndexOf finds the index of v's edge to dst by binary search over the
// sorted adjacency, or -1 when absent.
func edgeIndexOf(g *graph.Graph, v, dst graph.VertexID) int {
	adj := g.Neighbors(v)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= dst })
	if i < len(adj) && adj[i] == dst {
		return i
	}
	return -1
}

// Node2VecMixed returns a *deliberately degraded* biased node2vec that
// folds the edge weight into the dynamic component instead of the static
// one (Ps ≡ 1, Pd *= weight), reproducing the "mixed" configuration of the
// paper's Figure 8. The envelope must then cover maxWeight × max Pd, so
// skewed or large weights blow up the rejection area. For the ablation
// only — use Node2Vec for real work.
func Node2VecMixed(params Node2VecParams) *core.Algorithm {
	if params.Biased {
		panic("alg: Node2VecMixed supplies its own weight handling; set Biased=false")
	}
	base := Node2Vec(Node2VecParams{
		P: params.P, Q: params.Q, Length: params.Length,
		LowerBound: false, FoldOutlier: false,
	})
	inner := base.EdgeDynamicComp
	invP := 1 / params.P
	invQ := 1 / params.Q
	maxPd := math.Max(math.Max(1, invP), invQ)
	base.Name = "node2vec-mixed"
	base.EdgeDynamicComp = func(w *core.Walker, e graph.Edge, result uint64, hasResult bool) float64 {
		return float64(e.Weight) * inner(w, e, result, hasResult)
	}
	base.UpperBound = func(g *graph.Graph, v graph.VertexID) float64 {
		m := g.MaxWeight(v)
		if m <= 0 {
			m = 1
		}
		return m * maxPd
	}
	return base
}
