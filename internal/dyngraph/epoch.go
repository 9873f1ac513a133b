package dyngraph

import (
	"fmt"

	"knightking/internal/graph"
	"knightking/internal/parallel"
	"knightking/internal/sampling"
)

// Epoch is one immutable published snapshot of a dynamic graph: a
// consistent graph view, the delta-log chain fingerprint (plus the
// content fingerprint where it is known), and the prebuilt per-vertex
// alias rows. Jobs pin the epoch they admit on and use it for
// their whole life; nothing a writer does later can disturb it.
//
// Epoch implements core.SamplerProvider, so the engine samples from the
// incrementally maintained rows instead of rebuilding them per run.
type Epoch struct {
	seq  uint64
	view *graph.Graph

	// fp is the O(V+E) content hash, known only for epoch 0 and
	// post-compaction epochs, which hash a fresh plain CSR anyway.
	fpKnown bool
	fp      uint64

	logFP uint64
	rows  rowTable
}

// Seq returns the epoch sequence number (0 = the loaded base).
func (e *Epoch) Seq() uint64 { return e.seq }

// View returns the epoch's graph view. Plain CSR for epoch 0 and for
// every epoch right after a compaction; an overlay view otherwise.
func (e *Epoch) View() *graph.Graph { return e.view }

// Fingerprint returns graph.Fingerprint of the epoch's plain CSR view and
// true, for epoch 0 and post-compaction epochs. Ingest epochs report
// false: hashing them costs O(V+E), so Apply never does; compact first.
func (e *Epoch) Fingerprint() (uint64, bool) { return e.fp, e.fpKnown }

// LogFingerprint returns the delta-log chain hash: a pure function of
// the base fingerprint, every applied batch in order, and compaction
// points. Two services that ingested the same history agree on it even
// across restarts.
func (e *Epoch) LogFingerprint() uint64 { return e.logFP }

// DeltaStats reports the overlay size at this epoch: vertices with
// replacement segments, and the net edge delta versus the base.
func (e *Epoch) DeltaStats() (verts int, edges int64) {
	return e.view.OverlayStats()
}

// AliasRow returns the prebuilt alias row for v, or nil when the epoch
// has none (unweighted graph, or a zero-degree vertex) and the caller
// should build its own. Implements the engine's SamplerProvider.
func (e *Epoch) AliasRow(v graph.VertexID) []sampling.AliasEntry {
	if e.rows == nil {
		return nil
	}
	return e.rows[v/graph.PageSize][v%graph.PageSize]
}

// rowTable is an epoch's alias rows, indexed by vertex through a
// directory of immutable pages of the same size as the overlay view's,
// every page present. An Apply copies the directory and clones only the
// pages holding a vertex it touched, so every other row (and page) is
// shared with earlier epochs; a compaction keeps the table as it is,
// since a compacted vertex's edges are exactly its overlay segment's.
// nil for unweighted graphs.
type rowTable []*rowPage

type rowPage [graph.PageSize][]sampling.AliasEntry

// baseRows prebuilds the per-vertex alias rows of a plain CSR in one
// slab, or returns nil for unweighted graphs (the engine's uniform draw
// needs no table; there is nothing worth caching). The vertex range is
// cut into runs of about equal edge count, built at once, one per core,
// each with its own scratch; a run's rows start in the slab where the
// degrees before it end, so the slab is laid out as a serial build's.
// A bad vertex fails the build with the error of the lowest one, as a
// serial build would.
func baseRows(g *graph.Graph) (rowTable, error) {
	if !g.Weighted() {
		return nil, nil
	}
	n := g.NumVertices()
	rows := make(rowTable, (n+graph.PageSize-1)/graph.PageSize)
	for p := range rows {
		rows[p] = new(rowPage)
	}
	slab := make([]sampling.AliasEntry, g.NumEdges())
	// runs[j] is run j's first vertex and its offset in the slab.
	type run struct{ lo, at int }
	k := parallel.Workers(len(slab))
	runs := make([]run, k+1)
	v, at := 0, 0
	for j := 1; j < k; j++ {
		for v < n && at < len(slab)*j/k {
			at += g.Degree(graph.VertexID(v))
			v++
		}
		runs[j] = run{v, at}
	}
	runs[k] = run{n, len(slab)}
	errs := make([]error, k)
	parallel.Do(k, func(j int) {
		errs[j] = buildRows(g, rows, runs[j].lo, runs[j+1].lo, slab[runs[j].at:runs[j+1].at])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// buildRows builds the alias rows of vertices [lo, hi) into rows,
// carving them out of slab in vertex order, and stops at the first
// vertex whose weights admit none.
func buildRows(g *graph.Graph, rows rowTable, lo, hi int, slab []sampling.AliasEntry) error {
	var scratch sampling.AliasScratch
	for v := lo; v < hi; v++ {
		id := graph.VertexID(v)
		deg := g.Degree(id)
		if deg == 0 {
			continue
		}
		row := slab[:deg:deg]
		slab = slab[deg:]
		if err := sampling.BuildAliasRow(row, g.Weights(id), g.Neighbors(id), &scratch); err != nil {
			return fmt.Errorf("dyngraph: vertex %d: %w", v, err)
		}
		rows[v/graph.PageSize][v%graph.PageSize] = row
	}
	return nil
}

// with returns the next epoch's rows over next, the updated view: verts
// (strictly increasing) get rows rebuilt from their new adjacency,
// O(degree) each, and every other row is shared with t. A nil table
// (unweighted graph) stays nil.
func (t rowTable) with(next *graph.Graph, verts []graph.VertexID) (rowTable, error) {
	if t == nil {
		return nil, nil
	}
	out := append(rowTable(nil), t...)
	var scratch sampling.AliasScratch
	for _, v := range verts {
		p := v / graph.PageSize
		if out[p] == t[p] {
			page := *t[p]
			out[p] = &page
		}
		var row []sampling.AliasEntry
		if deg := next.Degree(v); deg > 0 { // zero-degree: no row, like the base convention
			row = make([]sampling.AliasEntry, deg)
			if err := sampling.BuildAliasRow(row, next.Weights(v), next.Neighbors(v), &scratch); err != nil {
				return nil, fmt.Errorf("dyngraph: rebuild sampler of vertex %d: %w", v, err)
			}
		}
		out[p][v%graph.PageSize] = row
	}
	return out, nil
}
