package core

import (
	"fmt"

	"knightking/internal/graph"
	"knightking/internal/rng"
	"knightking/internal/sampling"
)

// Algorithm specifies a random walk in the paper's unified form (§2.2):
// the unnormalized transition probability of edge e for walker w at vertex
// v is Ps(e) · Pd(e, v, w) · Pe(v, w). Zero-valued fields select the
// engine defaults (uniform Ps, constant Pd ≡ 1, run forever), so a static
// unbiased walk needs nothing but a termination condition.
//
// The fields correspond one-to-one with the paper's Figure 4 API:
//
//	EdgeStaticComp        -> edgeStaticComp
//	EdgeDynamicComp       -> edgeDynamicComp (+ getStateQueryResult)
//	UpperBound            -> dynamicCompUpperBound
//	LowerBound            -> dynamicCompLowerBound
//	PostQuery             -> postStateQuery / postNeighbourQuery
//	Outliers/LocateOutlier-> outlier declaration APIs
//	MaxSteps/TerminationProb -> the Pe component
//
// The engine calls every hook from several goroutines at once, at set-up
// as during the walk, so hooks must be safe for concurrent use.
type Algorithm struct {
	// Name labels the algorithm in logs and results.
	Name string

	// Biased selects Ps = edge weight (requires a weighted graph unless
	// EdgeStaticComp is also set). When false and EdgeStaticComp is nil,
	// Ps ≡ 1 (unbiased).
	Biased bool

	// EdgeStaticComp overrides the static component Ps for v's i-th edge.
	// It must be walker-independent; the engine precomputes per-vertex
	// alias tables from it at initialization.
	EdgeStaticComp func(g *graph.Graph, v graph.VertexID, i int) float32

	// EdgeDynamicComp computes the dynamic component Pd for candidate edge
	// e at walker w's current vertex. queryResult is valid iff hasResult is
	// true (a PostQuery round-trip completed for this candidate). nil means
	// the walk is static: the engine samples directly from the alias table
	// with no rejection step.
	EdgeDynamicComp func(w *Walker, e graph.Edge, queryResult uint64, hasResult bool) float64

	// UpperBound returns the envelope Q(v) >= Pd over all non-outlier
	// edges at v. Mandatory when EdgeDynamicComp is set.
	UpperBound func(g *graph.Graph, v graph.VertexID) float64

	// LowerBound returns L(v) <= Pd over all edges at v, enabling
	// pre-acceptance (optional; nil disables).
	LowerBound func(g *graph.Graph, v graph.VertexID) float64

	// Outliers declares per-vertex outlier appendices: edges whose Pd may
	// exceed Q(v). Optional. Each appendix's Pd must be computable locally
	// (without PostQuery) once the edge is located.
	Outliers func(g *graph.Graph, v graph.VertexID) []sampling.Appendix

	// LocateOutlier resolves an appendix tag to the concrete edge index at
	// w's current vertex, or -1 if that outlier edge does not exist (e.g.
	// no return edge on the first step). Mandatory when Outliers is set.
	LocateOutlier func(g *graph.Graph, v graph.VertexID, w *Walker, tag int) int

	// PostQuery reports whether evaluating Pd for candidate edge e needs a
	// remote walker-to-vertex state query, and if so which vertex to ask
	// and with what argument. nil marks a first-order (or static) walk;
	// the engine then skips the two query message rounds entirely.
	PostQuery func(w *Walker, e graph.Edge) (target graph.VertexID, arg uint64, needed bool)

	// QueryHandler answers a state query on the node owning target. nil
	// selects the default neighborhood query: result 1 iff target has an
	// edge to vertex arg (the paper's postNeighbourQuery).
	QueryHandler func(g *graph.Graph, target graph.VertexID, arg uint64) uint64

	// MaxSteps terminates a walk after this many moves (0 = no limit).
	MaxSteps int
	// TerminationProb terminates a walk before each move with this
	// probability (the paper's PPR-style Pe; 0 disables).
	TerminationProb float64
	// RestartProb teleports the walker back to its origin vertex before a
	// move with this probability (random walk with restart, the classic
	// PPR formulation of Tong et al. cited by the paper). A teleport
	// advances Step (so MaxSteps bounds total walk length) but is not an
	// edge traversal: it is excluded from the Steps counter that the
	// edges/step metric divides by.
	RestartProb float64

	// InitWalker customizes a walker at start (assign Tag, etc.).
	InitWalker func(w *Walker, r *rng.Rand)

	// HistorySize makes the engine maintain each walker's trail of the
	// most recently visited vertices (Walker.History, most recent last),
	// carried across migrations. This supports order-K algorithms — the
	// paper's walker state "carries necessary history information such as
	// the previous n vertices visited". 0 keeps only Prev.
	HistorySize int

	// ZeroMassCheck, for higher-order walks that can have zero acceptance
	// mass (e.g. typed walks with no eligible edge at a vertex), reports
	// whether walker w has no positively-weighted edge at v. The engine
	// calls it only after FallbackTrials consecutive rejections — the
	// full-scan fallback is unavailable when Pd needs remote queries — and
	// terminates the walk when it returns true (the paper's "no out edges
	// ... are eligible" rule). When nil, a rejection-saturated higher-order
	// walker simply yields its superstep and retries.
	ZeroMassCheck func(g *graph.Graph, v graph.VertexID, w *Walker) bool

	// FallbackTrials bounds consecutive rejected trials at one vertex
	// before the engine falls back to an exact full scan (counting every
	// Pd evaluation), which guarantees progress when the acceptance ratio
	// is pathologically low or zero-eligible-mass walks must terminate.
	// 0 selects the default (64). Only local-Pd algorithms (PostQuery ==
	// nil) can use the fallback; higher-order walks must guarantee
	// positive acceptance mass, which node2vec does by construction.
	FallbackTrials int
}

// validate checks the consistency rules above.
func (a *Algorithm) validate(g *graph.Graph) error {
	if a.EdgeDynamicComp != nil && a.UpperBound == nil {
		return fmt.Errorf("core: algorithm %q has EdgeDynamicComp but no UpperBound (the envelope Q is mandatory for dynamic walks)", a.Name)
	}
	if a.Outliers != nil && a.LocateOutlier == nil {
		return fmt.Errorf("core: algorithm %q declares Outliers but no LocateOutlier", a.Name)
	}
	if a.Biased && a.EdgeStaticComp == nil && !g.Weighted() {
		return fmt.Errorf("core: algorithm %q is biased but the graph is unweighted", a.Name)
	}
	if a.MaxSteps < 0 {
		return fmt.Errorf("core: algorithm %q has negative MaxSteps", a.Name)
	}
	if a.TerminationProb < 0 || a.TerminationProb > 1 {
		return fmt.Errorf("core: algorithm %q has TerminationProb %v outside [0,1]", a.Name, a.TerminationProb)
	}
	if a.RestartProb < 0 || a.RestartProb > 1 {
		return fmt.Errorf("core: algorithm %q has RestartProb %v outside [0,1]", a.Name, a.RestartProb)
	}
	if a.MaxSteps == 0 && a.TerminationProb == 0 {
		return fmt.Errorf("core: algorithm %q never terminates (set MaxSteps or TerminationProb)", a.Name)
	}
	if a.HistorySize < 0 || a.HistorySize > 255 {
		return fmt.Errorf("core: algorithm %q HistorySize %d outside [0,255]", a.Name, a.HistorySize)
	}
	return nil
}

// dynamic reports whether the walk has a dynamic component.
func (a *Algorithm) dynamic() bool { return a.EdgeDynamicComp != nil }

// higherOrder reports whether the walk needs remote state queries.
func (a *Algorithm) higherOrder() bool { return a.PostQuery != nil }

// staticWeight returns Ps for v's i-th edge under this algorithm.
func (a *Algorithm) staticWeight(g *graph.Graph, v graph.VertexID, i int) float32 {
	if a.EdgeStaticComp != nil {
		return a.EdgeStaticComp(g, v, i)
	}
	if a.Biased {
		return g.EdgeWeight(v, i)
	}
	return 1
}

// uniformStatic reports whether Ps ≡ 1, letting the engine skip alias
// tables and use O(1) uniform candidate sampling.
func (a *Algorithm) uniformStatic() bool {
	return a.EdgeStaticComp == nil && !a.Biased
}

// answerQuery runs the query handler (or the default neighborhood check).
func (a *Algorithm) answerQuery(g *graph.Graph, target graph.VertexID, arg uint64) uint64 {
	if a.QueryHandler != nil {
		return a.QueryHandler(g, target, arg)
	}
	if g.HasEdge(target, graph.VertexID(arg)) {
		return 1
	}
	return 0
}

// fallbackTrials returns the configured or default trial cap.
func (a *Algorithm) fallbackTrials() int {
	if a.FallbackTrials > 0 {
		return a.FallbackTrials
	}
	return 64
}
