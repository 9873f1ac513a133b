package dyngraph

import (
	"math"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
)

// maxDeletedEpoch builds a dynamic graph whose published overlay epoch
// has deleted the maximum-weight edge of many vertices: big-weight edges
// are ingested in one batch and deleted in the next. It returns the epoch
// and the CSR its view compacts to.
func maxDeletedEpoch(t *testing.T) (*Epoch, *graph.Graph) {
	t.Helper()
	base := gen.WithUniformWeights(gen.UniformDegree(60, 6, 113), 1, 5, 114)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var widen, shrink []Delta
	for v := graph.VertexID(0); v < 20; v++ {
		dst := graph.VertexID(40 + v%15)
		if base.HasEdge(v, dst) || v == dst {
			continue
		}
		widen = append(widen, Delta{Src: v, Dst: dst, Weight: 25})
		shrink = append(shrink, Delta{Op: OpDelete, Src: v, Dst: dst})
	}
	// Also reshape some adjacency for real: inserts that stay.
	widen = append(widen,
		Delta{Src: 3, Dst: 33, Weight: 4}, Delta{Src: 33, Dst: 3, Weight: 4},
		Delta{Src: 9, Dst: 39, Weight: 2}, Delta{Src: 39, Dst: 9, Weight: 2},
	)
	if _, err := d.Apply(widen); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Apply(shrink)
	if err != nil {
		t.Fatal(err)
	}
	if !ep.View().Overlaid() {
		t.Fatal("expected an overlay epoch")
	}
	return ep, ep.View().Compacted()
}

// TestFirstOrderChiSquareOverlayVsRebuilt: first-order biased walks on
// the overlay epoch are chi-square tested against the exact transition
// distribution of the equivalently rebuilt-from-scratch CSR — next
// vertex ∝ edge weight.
func TestFirstOrderChiSquareOverlayVsRebuilt(t *testing.T) {
	ep, rebuilt := maxDeletedEpoch(t)
	res, err := core.Run(core.Config{
		Graph:       ep.View(),
		Algorithm:   alg.DeepWalk(40, true),
		NumWalkers:  2500,
		NumNodes:    2,
		Seed:        117,
		RecordPaths: true,
		Samplers:    ep,
	})
	if err != nil {
		t.Fatal(err)
	}

	observed := make(map[graph.VertexID]map[graph.VertexID]int)
	for _, path := range res.Paths {
		for i := 0; i+1 < len(path); i++ {
			m := observed[path[i]]
			if m == nil {
				m = make(map[graph.VertexID]int)
				observed[path[i]] = m
			}
			m[path[i+1]]++
		}
	}

	var chi2 float64
	df, contexts := 0, 0
	for cur, counts := range observed {
		n := 0
		for _, c := range counts {
			n += c
		}
		adj := rebuilt.Neighbors(cur)
		ws := rebuilt.Weights(cur)
		total := 0.0
		for _, w := range ws {
			total += float64(w)
		}
		minExp := math.Inf(1)
		for _, w := range ws {
			if e := float64(n) * float64(w) / total; e < minExp {
				minExp = e
			}
		}
		if minExp < 5 {
			continue
		}
		for i, x := range adj {
			e := float64(n) * float64(ws[i]) / total
			d := float64(counts[x]) - e
			chi2 += d * d / e
		}
		df += len(adj) - 1
		contexts++
	}
	if contexts < 40 {
		t.Fatalf("only %d contexts had enough mass", contexts)
	}
	limit := float64(df) + 6*math.Sqrt(2*float64(df))
	t.Logf("chi2 = %.1f over df = %d (%d contexts), limit %.1f", chi2, df, contexts, limit)
	if chi2 > limit {
		t.Fatalf("chi2 = %.1f exceeds %.1f: overlay-epoch walks deviate from the rebuilt CSR's transition law", chi2, limit)
	}
	if chi2 < float64(df)-6*math.Sqrt(2*float64(df)) {
		t.Fatalf("chi2 = %.1f implausibly small for df = %d", chi2, df)
	}
}

// TestNode2vecChiSquareOverlayVsRebuilt: the second-order check. On the
// overlay epoch, node2vec transitions (with outlier folding and
// lower-bound pre-acceptance, i.e. the full rejection geometry built
// from the epoch view's live weights) must match the closed-form
// distribution computed from the rebuilt CSR: weight(x) ∝ W(cur,x) ·
// (1/p·[x=prev] + 1·[prev~x] + 1/q·[otherwise]).
func TestNode2vecChiSquareOverlayVsRebuilt(t *testing.T) {
	const p, q = 2.0, 0.5
	ep, rebuilt := maxDeletedEpoch(t)
	res, err := core.Run(core.Config{
		Graph: ep.View(),
		Algorithm: alg.Node2Vec(alg.Node2VecParams{
			P: p, Q: q, Length: 48, Biased: true, LowerBound: true, FoldOutlier: true,
		}),
		NumWalkers:  2500,
		NumNodes:    2,
		Seed:        119,
		RecordPaths: true,
		Samplers:    ep,
	})
	if err != nil {
		t.Fatal(err)
	}

	type context struct{ prev, cur graph.VertexID }
	observed := make(map[context]map[graph.VertexID]int)
	for _, path := range res.Paths {
		for i := 1; i+1 < len(path); i++ {
			ctx := context{path[i-1], path[i]}
			m := observed[ctx]
			if m == nil {
				m = make(map[graph.VertexID]int)
				observed[ctx] = m
			}
			m[path[i+1]]++
		}
	}

	invP, invQ := 1/p, 1/q
	var chi2 float64
	df, contexts, skipped := 0, 0, 0
	for ctx, counts := range observed {
		n := 0
		for _, c := range counts {
			n += c
		}
		adj := rebuilt.Neighbors(ctx.cur)
		ws := rebuilt.Weights(ctx.cur)
		probs := make(map[graph.VertexID]float64)
		total := 0.0
		for i, x := range adj {
			var pd float64
			switch {
			case x == ctx.prev:
				pd = invP
			case rebuilt.HasEdge(ctx.prev, x):
				pd = 1
			default:
				pd = invQ
			}
			w := pd * float64(ws[i])
			probs[x] += w
			total += w
		}
		minExp := math.Inf(1)
		for _, w := range probs {
			if e := float64(n) * w / total; e < minExp {
				minExp = e
			}
		}
		if minExp < 5 {
			skipped++
			continue
		}
		for x, w := range probs {
			e := float64(n) * w / total
			d := float64(counts[x]) - e
			chi2 += d * d / e
		}
		df += len(probs) - 1
		contexts++
	}
	if contexts < 100 {
		t.Fatalf("only %d contexts had enough mass (%d skipped); increase walkers", contexts, skipped)
	}
	limit := float64(df) + 6*math.Sqrt(2*float64(df))
	t.Logf("chi2 = %.1f over df = %d (%d contexts, %d skipped), limit %.1f", chi2, df, contexts, skipped, limit)
	if chi2 > limit {
		t.Fatalf("chi2 = %.1f exceeds %.1f: second-order walks on the overlay epoch deviate from the rebuilt CSR's law", chi2, limit)
	}
	if chi2 < float64(df)-6*math.Sqrt(2*float64(df)) {
		t.Fatalf("chi2 = %.1f implausibly small for df = %d", chi2, df)
	}
}
