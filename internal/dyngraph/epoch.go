package dyngraph

import (
	"fmt"

	"knightking/internal/graph"
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
	store *samplerView
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
	if e.store == nil {
		return nil
	}
	if i := e.view.OverlayIndex(v); i >= 0 {
		return e.store.tabs[i]
	}
	return e.store.base[v]
}

// samplerView is an epoch's per-vertex alias rows: a dense base table
// (index = vertex) plus tabs, parallel to the epoch view's overlay vertex
// list, for vertices whose adjacency diverged from the base. Row headers
// are copied across epochs, the rows themselves shared; an Apply only
// builds rows for the vertices it touched.
type samplerView struct {
	base [][]sampling.AliasEntry
	tabs [][]sampling.AliasEntry
}

// extend produces the next epoch's rows over next, the updated overlay
// view, rebuilding only where touched[i] is set (O(degree) each, Dst taken
// from the vertex's new segment); every other vertex is overlaid in prev,
// the view s belongs to, and keeps its row. nil receiver (unweighted
// graph) stays nil.
func (s *samplerView) extend(prev, next *graph.Graph, verts []graph.VertexID, touched []bool) (*samplerView, error) {
	if s == nil {
		return nil, nil
	}
	out := &samplerView{
		base: s.base,
		tabs: make([][]sampling.AliasEntry, len(verts)),
	}
	var scratch sampling.AliasScratch
	for i, v := range verts {
		if !touched[i] {
			out.tabs[i] = s.tabs[prev.OverlayIndex(v)]
			continue
		}
		deg := next.Degree(v)
		if deg == 0 {
			continue // zero-degree: no row, like the base convention
		}
		row := make([]sampling.AliasEntry, deg)
		if err := sampling.BuildAliasRow(row, next.Weights(v), next.Neighbors(v), &scratch); err != nil {
			return nil, fmt.Errorf("dyngraph: rebuild sampler of vertex %d: %w", v, err)
		}
		out.tabs[i] = row
	}
	return out, nil
}
