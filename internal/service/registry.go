package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"knightking/internal/dyngraph"
	"knightking/internal/graph"
)

// GraphInfo is the registry's public description of one named graph, as
// returned by GET /graphs. The epoch fields reflect the graph's current
// published epoch at the time of the call; a job pins the epoch it was
// admitted on, which may be older.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Weighted bool   `json:"weighted"`
	Typed    bool   `json:"typed"`
	// Fingerprint is the registered base graph's content hash rendered as
	// 16 hex digits — the identity behind the name, stable across ingest.
	Fingerprint string `json:"fingerprint"`
	// EpochID identifies the current published epoch.
	EpochID
	// DeltaVertices/DeltaEdges describe the current epoch's overlay:
	// vertices with replacement segments and the net edge count change
	// versus the base CSR. Both zero right after a compaction.
	DeltaVertices int   `json:"delta_vertices"`
	DeltaEdges    int64 `json:"delta_edges"`
}

// EpochID identifies one published graph epoch in API payloads: its
// sequence number (0 = the loaded base), its O(batch) delta-log hash, and
// its canonical content hash where the epoch knows it — at epoch 0 and
// right after a compaction. No request hashes live content (O(V+E));
// POST /graphs/{name}/compact is the explicit way to obtain it.
type EpochID struct {
	Epoch               uint64 `json:"epoch"`
	EpochFingerprint    string `json:"epoch_fingerprint,omitempty"`
	EpochLogFingerprint string `json:"epoch_log_fingerprint"`
}

func epochID(ep *dyngraph.Epoch) EpochID {
	id := EpochID{Epoch: ep.Seq(), EpochLogFingerprint: fmt.Sprintf("%016x", ep.LogFingerprint())}
	if fp, ok := ep.Fingerprint(); ok {
		id.EpochFingerprint = fmt.Sprintf("%016x", fp)
	}
	return id
}

// GraphRegistry holds the service's named graphs. Each entry is a
// dyngraph.DynGraph: jobs read a pinned immutable epoch while POST
// /graphs/{name}/edges appends deltas and publishes new epochs — the
// load-once amortization now extends to live updates, since ingest
// maintains sampler tables incrementally instead of forcing a reload.
//
// A name is bound to the registered base graph's content, not to whoever
// registered first: re-registering the same content under the same name
// is an idempotent no-op (so a restart script can blindly re-register),
// while registering different content under a taken name is rejected,
// because jobs refer to graphs by name and silently swapping the content
// would change what a (graph, seed, params) submission means. Ingested
// deltas deliberately do not change this identity — they are recorded in
// the epoch fingerprint and the delta-log chain instead.
type GraphRegistry struct {
	opt dyngraph.Options

	mu      sync.RWMutex
	entries map[string]*graphEntry
}

type graphEntry struct {
	name string
	dyn  *dyngraph.DynGraph
	fp   uint64 // registration-time base fingerprint
}

// NewGraphRegistry returns an empty registry; opt shapes every graph's
// delta layer (sampler kind, auto-compaction threshold).
func NewGraphRegistry(opt dyngraph.Options) *GraphRegistry {
	return &GraphRegistry{opt: opt, entries: make(map[string]*graphEntry)}
}

// Register binds name to g. See the GraphRegistry doc for the identity
// rules; the error distinguishes an invalid name from a name collision.
func (r *GraphRegistry) Register(name string, g *graph.Graph) (GraphInfo, error) {
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return GraphInfo{}, fmt.Errorf("service: invalid graph name %q (need non-empty, no slashes or whitespace)", name)
	}
	if g == nil {
		return GraphInfo{}, fmt.Errorf("service: registering nil graph %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[name]; ok {
		// Only a name already bound hashes the offered graph: a new
		// binding takes epoch 0's fingerprint, which dyngraph.New computes.
		if fp := graph.Fingerprint(g); fp != prev.fp {
			return GraphInfo{}, fmt.Errorf("service: graph name %q already bound to different content (registered %016x, offered %016x)",
				name, prev.fp, fp)
		}
		return prev.info(), nil // same content: idempotent
	}
	dyn, err := dyngraph.New(g, r.opt)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("service: graph %q: %w", name, err)
	}
	fp, _ := dyn.Epoch().Fingerprint() // known at epoch 0
	e := &graphEntry{name: name, dyn: dyn, fp: fp}
	r.entries[name] = e
	return e.info(), nil
}

// info describes the entry at its current published epoch.
func (e *graphEntry) info() GraphInfo {
	ep := e.dyn.Epoch()
	g := ep.View()
	dv, de := ep.DeltaStats()
	return GraphInfo{
		Name:          e.name,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		Weighted:      g.Weighted(),
		Typed:         g.Typed(),
		Fingerprint:   fmt.Sprintf("%016x", e.fp),
		EpochID:       epochID(ep),
		DeltaVertices: dv,
		DeltaEdges:    de,
	}
}

// Get returns the dynamic graph bound to name.
func (r *GraphRegistry) Get(name string) (*dyngraph.DynGraph, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.dyn, true
}

// Info returns the current GraphInfo of a registered graph.
func (r *GraphRegistry) Info(name string) (GraphInfo, bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return GraphInfo{}, false
	}
	return e.info(), true
}

// List returns every registered graph's info, sorted by name.
func (r *GraphRegistry) List() []GraphInfo {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]GraphInfo, len(entries))
	for i, e := range entries {
		out[i] = e.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeltaTotals sums the per-graph delta-layer counters for /metrics:
// applied batches and deltas since load, compactions (explicit and
// auto-triggered), and deltas pending in overlays right now.
func (r *GraphRegistry) DeltaTotals() (batches, deltas, compactions, pending int64) {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		m := e.dyn.Metrics()
		batches += m.AppliedBatches
		deltas += m.AppliedDeltas
		compactions += m.Compactions
		pending += m.PendingDeltas
	}
	return batches, deltas, compactions, pending
}

// Len returns the number of registered graphs.
func (r *GraphRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
