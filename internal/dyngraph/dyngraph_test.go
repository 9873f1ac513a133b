package dyngraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/parallel"
	"knightking/internal/sampling"
)

// model is the correctness oracle: a naive mutable edge set rebuilt from
// scratch into a CSR with the Builder, compared against the incremental
// overlay by fingerprint.
type model struct {
	n        int
	weighted bool
	typed    bool
	edges    map[uint64]graph.Edge // src<<32|dst → edge
}

func modelOf(g *graph.Graph) *model {
	m := &model{
		n:        g.NumVertices(),
		weighted: g.Weighted(),
		typed:    g.Typed(),
		edges:    make(map[uint64]graph.Edge),
	}
	for v := 0; v < m.n; v++ {
		for i := 0; i < g.Degree(graph.VertexID(v)); i++ {
			e := g.EdgeAt(graph.VertexID(v), i)
			m.edges[uint64(v)<<32|uint64(e.Dst)] = e
		}
	}
	return m
}

// apply mirrors DynGraph.Apply's semantics (upsert insert, strict
// delete); returns false when the batch must fail.
func (m *model) apply(batch []Delta) bool {
	for _, d := range batch {
		if int(d.Src) >= m.n || int(d.Dst) >= m.n {
			return false
		}
		key := uint64(d.Src)<<32 | uint64(d.Dst)
		switch d.Op {
		case OpDelete:
			if _, ok := m.edges[key]; !ok {
				return false
			}
			delete(m.edges, key)
		default:
			w := d.Weight
			if !m.weighted {
				if w != 0 && w != 1 {
					return false
				}
				w = 1
			} else if !(w > 0) {
				return false
			}
			if !m.typed && d.Type != 0 {
				return false
			}
			m.edges[key] = graph.Edge{Dst: d.Dst, Weight: w, Type: d.Type}
		}
	}
	return true
}

// rebuild constructs the from-scratch CSR the overlay must match.
func (m *model) rebuild() *graph.Graph {
	b := graph.NewBuilder(m.n)
	for key, e := range m.edges {
		src := graph.VertexID(key >> 32)
		switch {
		case m.typed:
			b.AddTypedEdge(src, e.Dst, e.Weight, e.Type)
		case m.weighted:
			b.AddWeightedEdge(src, e.Dst, e.Weight)
		default:
			b.AddEdge(src, e.Dst)
		}
	}
	return b.Build()
}

func weightedBase(t *testing.T, n, deg int, seed uint64) *graph.Graph {
	t.Helper()
	return gen.WithUniformWeights(gen.UniformDegree(n, deg, seed), 1, 5, seed+1)
}

// randomBatch produces a valid batch against the model: mostly upserts,
// some deletes of existing edges.
func randomBatch(r *rand.Rand, m *model, size int) []Delta {
	batch := make([]Delta, 0, size)
	keys := make([]uint64, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	for len(batch) < size {
		if len(keys) > 0 && r.Intn(4) == 0 {
			k := keys[r.Intn(len(keys))]
			d := Delta{Op: OpDelete, Src: graph.VertexID(k >> 32), Dst: graph.VertexID(k)}
			// Avoid double-deleting within one batch (the model would
			// reject what DynGraph rejects too, but keep batches valid).
			dup := false
			for _, prev := range batch {
				if prev.Op == OpDelete && prev.Src == d.Src && prev.Dst == d.Dst {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			batch = append(batch, d)
			continue
		}
		d := Delta{
			Op:  OpInsert,
			Src: graph.VertexID(r.Intn(m.n)),
			Dst: graph.VertexID(r.Intn(m.n)),
		}
		if m.weighted {
			d.Weight = float32(r.Float64()*9 + 1)
		}
		batch = append(batch, d)
	}
	return batch
}

// TestApplyMatchesRebuilt is the oracle test: after each random batch
// the epoch's overlay view, compacted, must fingerprint identically to
// the CSR rebuilt from scratch from the same edge set — for weighted
// and unweighted bases.
func TestApplyMatchesRebuilt(t *testing.T) {
	for _, tc := range []struct {
		name string
		base *graph.Graph
	}{
		{"weighted", weightedBase(t, 80, 6, 11)},
		{"unweighted", gen.UniformDegree(80, 6, 13)},
		{"typed", gen.WithTypes(gen.WithUniformWeights(gen.UniformDegree(80, 6, 17), 1, 4, 18), 3, 19)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(tc.base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := modelOf(tc.base)
			r := rand.New(rand.NewSource(23))
			for round := 0; round < 8; round++ {
				batch := randomBatch(r, m, 40)
				if !m.apply(batch) {
					t.Fatalf("round %d: model rejected a generated batch", round)
				}
				ep, err := d.Apply(batch)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				if err := ep.View().Validate(); err != nil {
					t.Fatalf("round %d: view invalid: %v", round, err)
				}
				want := m.rebuild()
				if graph.Fingerprint(ep.View().Compacted()) != graph.Fingerprint(want) {
					t.Fatalf("round %d: overlay view diverged from the rebuilt-from-scratch CSR", round)
				}
				if _, ok := ep.Fingerprint(); ok {
					t.Fatalf("round %d: ingest epoch claims a content fingerprint", round)
				}
				if ep.Seq() != uint64(round+1) {
					t.Fatalf("round %d: epoch seq %d", round, ep.Seq())
				}
			}
			// Compaction lands on the exact rebuilt fingerprint too.
			ep, err := d.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if ep.View().Overlaid() {
				t.Fatal("compacted epoch still an overlay")
			}
			if graph.Fingerprint(ep.View()) != graph.Fingerprint(m.rebuild()) {
				t.Fatal("compacted CSR differs from the rebuilt-from-scratch CSR")
			}
			if fp, ok := ep.Fingerprint(); !ok || fp != graph.Fingerprint(m.rebuild()) {
				t.Fatalf("compacted epoch fingerprint (%x, %v), want the rebuilt CSR's", fp, ok)
			}
		})
	}
}

// TestEpochImmutability: an epoch captured before later Applies and a
// Compact still reads the data it was published with.
func TestEpochImmutability(t *testing.T) {
	base := weightedBase(t, 40, 4, 29)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep0 := d.Epoch()
	fp0, ok := ep0.Fingerprint()
	if !ok {
		t.Fatal("epoch 0 does not know its content fingerprint")
	}
	deg0 := ep0.View().Degree(3)

	if _, err := d.Apply([]Delta{{Src: 3, Dst: 7, Weight: 2}, {Src: 3, Dst: 9, Weight: 4}}); err != nil {
		t.Fatal(err)
	}
	ep1 := d.Epoch()
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply([]Delta{{Op: OpDelete, Src: 3, Dst: 7}}); err != nil {
		t.Fatal(err)
	}

	if fp, _ := ep0.Fingerprint(); fp != fp0 || graph.Fingerprint(ep0.View()) != fp0 {
		t.Fatal("epoch 0 content changed under later writes")
	}
	if ep0.View().Degree(3) != deg0 {
		t.Fatal("epoch 0 adjacency changed under later writes")
	}
	if ep1.View().Degree(3) != deg0+2 {
		t.Fatalf("epoch 1 degree %d, want %d", ep1.View().Degree(3), deg0+2)
	}
	if !ep1.View().HasEdge(3, 7) {
		t.Fatal("epoch 1 lost its inserted edge after compaction + delete")
	}
	if d.Epoch().View().HasEdge(3, 7) {
		t.Fatal("current epoch still has the deleted edge")
	}
}

// TestApplyErrors: invalid batches are rejected atomically — the epoch
// and the working state stay exactly as before.
func TestApplyErrors(t *testing.T) {
	base := weightedBase(t, 20, 4, 31)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply([]Delta{{Src: 1, Dst: 2, Weight: 3}}); err != nil {
		t.Fatal(err)
	}
	before := d.Epoch()

	bad := [][]Delta{
		nil,                                          // empty batch
		{{Src: 99, Dst: 0, Weight: 1}},               // src out of range
		{{Src: 0, Dst: 99, Weight: 1}},               // dst out of range
		{{Src: 0, Dst: 1}},                           // zero weight on weighted graph
		{{Src: 0, Dst: 1, Weight: -2}},               // negative weight
		{{Src: 0, Dst: 1, Weight: 1, Type: 2}},       // type on untyped graph
		{{Op: "replace", Src: 0, Dst: 1, Weight: 1}}, // unknown op
		{{Src: 4, Dst: 5, Weight: 1}, {Op: OpDelete, Src: 4, Dst: 6}}, // delete missing, after a valid insert
	}
	for i, batch := range bad {
		if _, err := d.Apply(batch); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	// The error names the first offending delta in batch order, also when
	// a later offender's source sorts first.
	view := before.View()
	missing := func(src graph.VertexID) graph.VertexID {
		v := graph.VertexID(0)
		for view.HasEdge(src, v) {
			v++
		}
		return v
	}
	for _, tc := range []struct {
		batch []Delta
		want  string
	}{
		{[]Delta{{Op: OpDelete, Src: 5, Dst: missing(5)}, {Src: 1, Dst: 99, Weight: 1}}, "delta 0:"},
		{[]Delta{
			{Src: 1, Dst: 2, Weight: 1},
			{Src: 7, Dst: view.Neighbors(7)[0], Weight: 2},
			{Op: OpDelete, Src: 7, Dst: missing(7)},
			{Src: 0, Dst: 1, Weight: -1},
		}, "delta 2:"},
	} {
		if _, err := d.Apply(tc.batch); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("batch %+v: error %v, want one naming %q", tc.batch, err, tc.want)
		}
	}
	if d.Epoch() != before {
		t.Fatal("failed batches must not publish an epoch")
	}
	// The partially-applied insert of the last bad batch must not leak:
	// 4->5 was inserted before the failing delete.
	if d.Epoch().View().HasEdge(4, 5) && !base.HasEdge(4, 5) {
		t.Fatal("failed batch leaked a partial insert")
	}
	m := d.Metrics()
	if m.AppliedBatches != 1 || m.AppliedDeltas != 1 {
		t.Fatalf("metrics counted failed batches: %+v", m)
	}
}

// TestAutoCompactThreshold pins the exact trigger point: crossing
// CompactAfter folds the overlay within the same Apply call.
func TestAutoCompactThreshold(t *testing.T) {
	base := weightedBase(t, 30, 4, 37)
	d, err := New(base, Options{CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := d.Apply([]Delta{{Src: 0, Dst: 5, Weight: 1}, {Src: 1, Dst: 5, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !ep.View().Overlaid() {
		t.Fatal("compacted below the threshold")
	}
	ep, err = d.Apply([]Delta{{Src: 2, Dst: 5, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ep.View().Overlaid() {
		t.Fatal("did not auto-compact at the threshold")
	}
	if m := d.Metrics(); m.Compactions != 1 || m.PendingDeltas != 0 {
		t.Fatalf("metrics after auto-compaction: %+v", m)
	}
}

// TestLogFingerprint: the delta-log chain is a pure function of the
// ingest history — same history agrees, different order differs, and
// compaction points are part of the identity.
func TestLogFingerprint(t *testing.T) {
	base := weightedBase(t, 20, 4, 41)
	mk := func() *DynGraph {
		d, err := New(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	b1 := []Delta{{Src: 1, Dst: 2, Weight: 3}}
	b2 := []Delta{{Src: 4, Dst: 5, Weight: 6}}

	d1, d2, d3 := mk(), mk(), mk()
	for _, b := range [][]Delta{b1, b2} {
		if _, err := d1.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := d2.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range [][]Delta{b2, b1} { // reversed
		if _, err := d3.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if d1.Epoch().LogFingerprint() != d2.Epoch().LogFingerprint() {
		t.Fatal("same ingest history, different log fingerprints")
	}
	if d1.Epoch().LogFingerprint() == d3.Epoch().LogFingerprint() {
		t.Fatal("reordered ingest history, same log fingerprint")
	}
	// Content fingerprints of d1 and d3 agree (same final edge set, both
	// orders); the log fingerprint is the finer identity.
	if graph.Fingerprint(d1.Epoch().View().Compacted()) != graph.Fingerprint(d3.Epoch().View().Compacted()) {
		t.Fatal("order-independent batches should reach the same content")
	}
	if _, err := d1.Compact(); err != nil {
		t.Fatal(err)
	}
	if d1.Epoch().LogFingerprint() == d2.Epoch().LogFingerprint() {
		t.Fatal("compaction must advance the log fingerprint")
	}
}

// TestCrashDuringCompaction: a crash after the new CSR is built but
// before publication leaves the published epoch untorn and fully
// usable, and a retry succeeds from clean state.
func TestCrashDuringCompaction(t *testing.T) {
	base := weightedBase(t, 30, 4, 43)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply([]Delta{{Src: 2, Dst: 9, Weight: 7}}); err != nil {
		t.Fatal(err)
	}
	before := d.Epoch()
	beforeFP := graph.Fingerprint(before.View().Compacted())

	testHookMidCompact = func() { panic("injected compaction crash") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected crash did not propagate")
			}
		}()
		_, _ = d.Compact()
	}()
	testHookMidCompact = nil

	// The published epoch is exactly what it was: same pointer, same
	// content, still walkable.
	if d.Epoch() != before {
		t.Fatal("crashed compaction published an epoch")
	}
	if graph.Fingerprint(d.Epoch().View().Compacted()) != beforeFP {
		t.Fatal("crashed compaction tore the published view")
	}
	if !d.Epoch().View().HasEdge(2, 9) {
		t.Fatal("crashed compaction lost the ingested edge")
	}

	// Retry from unchanged state: the compaction completes and matches
	// the rebuilt-from-scratch content.
	ep, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if ep.View().Overlaid() || !ep.View().HasEdge(2, 9) {
		t.Fatal("retried compaction produced a wrong view")
	}
	if graph.Fingerprint(ep.View()) != graph.Fingerprint(before.View().Compacted()) {
		t.Fatal("retried compaction content differs from the pre-crash view")
	}
	// And the dynamic graph still ingests normally afterwards.
	if _, err := d.Apply([]Delta{{Src: 1, Dst: 9, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
}

// TestSamplerTablesMatchRebuilt: the incrementally maintained per-vertex
// alias rows are identical to rows built from the rebuilt graph — for
// touched and untouched vertices, before and after compaction.
func TestSamplerTablesMatchRebuilt(t *testing.T) {
	base := weightedBase(t, 50, 5, 47)
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := modelOf(base)
	r := rand.New(rand.NewSource(53))
	for round := 0; round < 4; round++ {
		batch := randomBatch(r, m, 25)
		if !m.apply(batch) {
			t.Fatal("model rejected batch")
		}
		if _, err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
		assertTablesMatch(t, d.Epoch(), m.rebuild())
	}
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	assertTablesMatch(t, d.Epoch(), m.rebuild())
}

// assertTablesMatch checks every alias row of ep against the row built
// from want's weights and destinations: same length, and the same
// threshold, alias and Dst in every entry.
func assertTablesMatch(t *testing.T, ep *Epoch, want *graph.Graph) {
	t.Helper()
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		row := ep.AliasRow(id)
		deg := want.Degree(id)
		if deg == 0 {
			if row != nil {
				t.Fatalf("vertex %d: row for a zero-degree vertex", v)
			}
			continue
		}
		if len(row) != deg {
			t.Fatalf("vertex %d: row over %d items, degree %d", v, len(row), deg)
		}
		ref := make([]sampling.AliasEntry, deg)
		if err := sampling.BuildAliasRow(ref, want.Weights(id), want.Neighbors(id), new(sampling.AliasScratch)); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if row[i] != ref[i] {
				t.Fatalf("vertex %d entry %d: row %+v, rebuilt %+v", v, i, row[i], ref[i])
			}
		}
	}
}

// TestBaseRowsOnEveryCore: epoch 0's rows, built in several runs at once
// over a power law with hubs, equal the rows a single build makes.
func TestBaseRowsOnEveryCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := gen.WithPowerLawWeights(gen.TruncatedPowerLaw(20000, 4, 2000, 2.0, 63), 16, 2.0, 64)
	if k := parallel.Workers(int(base.NumEdges())); k < 2 {
		t.Fatalf("epoch 0 would build on %d goroutine, want several", k)
	}
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesMatch(t, d.Epoch(), base)
}

// TestUnweightedHasNoStore: unweighted graphs carry no prebuilt rows
// (the engine's uniform draw is cheaper than any lookup).
func TestUnweightedHasNoStore(t *testing.T) {
	d, err := New(gen.UniformDegree(20, 4, 59), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch().AliasRow(0) != nil {
		t.Fatal("unweighted epoch returned an alias row")
	}
	if _, err := d.Apply([]Delta{{Src: 0, Dst: 9}}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch().AliasRow(0) != nil {
		t.Fatal("unweighted epoch returned an alias row after ingest")
	}
}

// TestNewRejectsBadBases pins the constructor guards.
func TestNewRejectsBadBases(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil base accepted")
	}
	base := weightedBase(t, 10, 3, 61)
	if _, err := New(base, Options{CompactAfter: -1}); err == nil {
		t.Fatal("negative CompactAfter accepted")
	}
	d, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := d.Apply([]Delta{{Src: 0, Dst: 5, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ep.View(), Options{}); err == nil {
		t.Fatal("overlay view accepted as a base")
	}
	if _, err := New(graph.Subgraph(base, 0, 5), Options{}); err == nil {
		t.Fatal("partition slice accepted as a base")
	}

	// Vertices whose out-edges all weigh zero admit no alias row. Epoch
	// 0's rows are built on several goroutines; with one such vertex in
	// the second run and one in the last, the error must be the one a
	// serial build stops at: the lowest bad vertex's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 10000
	plain := gen.UniformDegree(n, 8, 62)
	k := parallel.Workers(int(plain.NumEdges()))
	if k < 2 {
		t.Fatalf("epoch 0 would build on %d goroutine, want several", k)
	}
	bad := []graph.VertexID{graph.VertexID(n/k + n/(4*k)), n - 5}
	zeroed := plain.Relabel(false, func(src graph.VertexID, e graph.Edge) (float32, int32) {
		if slices.Contains(bad, src) {
			return 0, 0
		}
		return 1 + float32(e.Dst%7), 0
	})
	var scratch sampling.AliasScratch
	lo := bad[0]
	rowErr := sampling.BuildAliasRow(make([]sampling.AliasEntry, zeroed.Degree(lo)), zeroed.Weights(lo), zeroed.Neighbors(lo), &scratch)
	if rowErr == nil {
		t.Fatalf("vertex %d's zero weights built an alias row", lo)
	}
	want := fmt.Sprintf("dyngraph: vertex %d: %v", lo, rowErr)
	if _, err := New(zeroed, Options{}); err == nil || err.Error() != want {
		t.Fatalf("New over zero-weight vertices %v: error %v, want %q", bad, err, want)
	}
}
