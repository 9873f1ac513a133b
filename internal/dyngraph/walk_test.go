package dyngraph

import (
	"testing"

	"knightking/internal/alg"
	"knightking/internal/core"
	"knightking/internal/gen"
	"knightking/internal/graph"
)

func runWalk(t *testing.T, ep *Epoch, program *core.Algorithm, seed uint64) *core.Result {
	t.Helper()
	res, err := core.Run(core.Config{
		Graph:       ep.View(),
		Algorithm:   program,
		NumWalkers:  300,
		NumNodes:    2,
		Seed:        seed,
		RecordPaths: true,
		Samplers:    ep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func samePaths(a, b [][]graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestWalkDeterminismAcrossEpochLifecycle is the PR's determinism pin:
// same epoch + same seed ⇒ bit-identical walk output, at the base
// epoch, after ingest (overlay view), and after compaction — for a
// first-order biased walk and for node2vec's second-order machinery.
func TestWalkDeterminismAcrossEpochLifecycle(t *testing.T) {
	base := gen.WithUniformWeights(gen.UniformDegree(80, 6, 91), 1, 5, 92)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]func() *core.Algorithm{
		"deepwalk-biased": func() *core.Algorithm { return alg.DeepWalk(25, true) },
		"node2vec": func() *core.Algorithm {
			return alg.Node2Vec(alg.Node2VecParams{
				P: 2, Q: 0.5, Length: 25, Biased: true, LowerBound: true, FoldOutlier: true,
			})
		},
	}

	epochs := map[string]*Epoch{"base": d.Epoch()}
	batch := []Delta{
		{Src: 3, Dst: 40, Weight: 9}, // new max at 3: widens the envelope
		{Src: 40, Dst: 3, Weight: 9},
		{Op: OpDelete, Src: 5, Dst: base.Neighbors(5)[0]},
		{Src: 7, Dst: 8, Weight: 0.5},
		{Src: 8, Dst: 7, Weight: 0.5},
	}
	ep, err := d.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	epochs["after-ingest"] = ep
	ep, err = d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	epochs["after-compaction"] = ep

	for stage, ep := range epochs {
		for name, mk := range programs {
			a := runWalk(t, ep, mk(), 97)
			b := runWalk(t, ep, mk(), 97)
			if !samePaths(a.Paths, b.Paths) {
				t.Fatalf("%s/%s: same epoch + same seed produced different walks", stage, name)
			}
			c := runWalk(t, ep, mk(), 98)
			if samePaths(a.Paths, c.Paths) {
				t.Fatalf("%s/%s: different seeds produced identical walks (vacuous pin)", stage, name)
			}
		}
	}
}

// TestOverlayBitIdenticalToRebuilt: an overlay epoch and the CSR its
// view compacts to have identical weights per vertex, hence identical
// alias tables and identical rejection bounds Q(v) and outlier widths,
// hence bit-identical walks and equal trial counts under the same seed —
// whether the epoch's prebuilt tables or local construction are used.
// The epoch's deletes remove touched vertices' maximum-weight edges, so
// any bound that is not read from the live weights would change the
// second-order dartboards.
func TestOverlayBitIdenticalToRebuilt(t *testing.T) {
	ep, rebuilt := maxDeletedEpoch(t)
	programs := map[string]func() *core.Algorithm{
		"deepwalk-biased": func() *core.Algorithm { return alg.DeepWalk(30, true) },
		"node2vec-biased": func() *core.Algorithm {
			return alg.Node2Vec(alg.Node2VecParams{
				P: 0.25, Q: 2, Length: 30, Biased: true, FoldOutlier: true,
			})
		},
		"node2vec-mixed": func() *core.Algorithm {
			return alg.Node2VecMixed(alg.Node2VecParams{P: 0.25, Q: 2, Length: 30})
		},
	}
	for name, mk := range programs {
		overlayRes := runWalk(t, ep, mk(), 211)
		plain, err := core.Run(core.Config{
			Graph: rebuilt, Algorithm: mk(), NumWalkers: 300, NumNodes: 2,
			Seed: 211, RecordPaths: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !samePaths(overlayRes.Paths, plain.Paths) {
			t.Errorf("%s: walks on the overlay epoch diverge from the compacted CSR", name)
		}
		if got, want := overlayRes.Counters.Trials, plain.Counters.Trials; got != want {
			t.Errorf("%s: %d rejection trials on the overlay epoch, %d on the compacted CSR", name, got, want)
		}
	}
}

// TestAllAlgorithmsRunOnEpochs: every production algorithm — DeepWalk,
// node2vec, meta-path, PPR — completes against an overlay epoch
// snapshot and behaves deterministically on it.
func TestAllAlgorithmsRunOnEpochs(t *testing.T) {
	base := gen.WithTypes(gen.WithUniformWeights(gen.UniformDegree(60, 6, 107), 1, 5, 108), 3, 109)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := d.Apply([]Delta{
		{Src: 0, Dst: 30, Weight: 3, Type: 1}, {Src: 30, Dst: 0, Weight: 3, Type: 1},
		{Op: OpDelete, Src: 4, Dst: base.Neighbors(4)[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ep.View().Overlaid() {
		t.Fatal("expected an overlay epoch")
	}
	programs := map[string]func() *core.Algorithm{
		"deepwalk": func() *core.Algorithm { return alg.DeepWalk(20, true) },
		"node2vec": func() *core.Algorithm {
			return alg.Node2Vec(alg.Node2VecParams{P: 4, Q: 0.25, Length: 20, Biased: true})
		},
		"metapath": func() *core.Algorithm {
			return alg.MetaPath([][]int32{{0, 1, 2}}, 20, true)
		},
		"ppr": func() *core.Algorithm { return alg.PPR(0.1, true, 200) },
	}
	for name, mk := range programs {
		a := runWalk(t, ep, mk(), 111)
		b := runWalk(t, ep, mk(), 111)
		if !samePaths(a.Paths, b.Paths) {
			t.Fatalf("%s: nondeterministic on an epoch snapshot", name)
		}
		if len(a.Paths) == 0 {
			t.Fatalf("%s: no walks recorded", name)
		}
	}
}
