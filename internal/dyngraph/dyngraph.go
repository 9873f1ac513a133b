// Package dyngraph adds dynamic graphs to the engine: a mutable delta
// layer over the immutable CSR with an epoch/snapshot model. Writers
// apply batches of edge insertions and deletions; each batch publishes a
// new immutable Epoch whose view is a graph.Graph overlay (per-vertex
// replacement segments over the shared base arrays), while walks keep
// running against whichever epoch they admitted on. A compactor folds
// the overlay into a fresh plain CSR once it grows past a threshold.
//
// The part that makes this cheap is *incremental* sampler maintenance,
// following the factorization insight of Bingo (PAPERS.md): each vertex
// has exactly one sampling structure, its alias row, so an ingested
// edge only invalidates the row of its source vertex. Apply rebuilds
// exactly the touched vertices' rows (O(degree) each); untouched
// vertices share their rows with the previous epoch. The
// rejection bounds Q(v)/L(v) are not maintained at all: the engine reads
// them from the live weights at set-up, exactly as on a plain CSR.
//
// Determinism contract: same epoch + same seed ⇒ bit-identical walks,
// and an overlay epoch walks exactly like its Compacted() CSR.
// The package therefore keeps every structure in sorted slices — no maps
// anywhere on the apply/compact path — and carries no clocks; timing
// belongs to the serving layer.
package dyngraph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"knightking/internal/graph"
	"knightking/internal/sampling"
)

// Op is a delta operation kind.
type Op string

const (
	// OpInsert adds the edge, or re-weights it if it already exists
	// (upsert). The empty string means insert too, so plain JSON edge
	// lists ingest without an op field.
	OpInsert Op = "insert"
	// OpDelete removes an existing edge; deleting a missing edge fails
	// the whole batch.
	OpDelete Op = "delete"
)

// Delta is one edge mutation. Directed: it touches only Src's adjacency
// (callers wanting undirected semantics submit both directions, exactly
// like the loaders store undirected inputs twice).
type Delta struct {
	Op     Op             `json:"op,omitempty"`
	Src    graph.VertexID `json:"src"`
	Dst    graph.VertexID `json:"dst"`
	Weight float32        `json:"weight,omitempty"`
	Type   int32          `json:"type,omitempty"`
}

// Options configures a DynGraph.
type Options struct {
	// CompactAfter, when positive, auto-compacts after that many applied
	// deltas have accumulated since the last compaction. Zero disables
	// auto-compaction (explicit Compact only).
	CompactAfter int
}

// edgeRec is one live overlay edge.
type edgeRec struct {
	dst graph.VertexID
	w   float32
	t   int32
}

// Metrics is a point-in-time snapshot of a DynGraph's counters.
type Metrics struct {
	Epoch          uint64
	DeltaVertices  int
	DeltaEdges     int64
	PendingDeltas  int64
	AppliedBatches int64
	AppliedDeltas  int64
	Compactions    int64
}

// DynGraph is a dynamic graph: an immutable base CSR plus per-vertex
// delta segments, publishing immutable epochs. Apply and Compact are
// serialized by an internal mutex; Epoch is lock-free and safe from any
// goroutine.
type DynGraph struct {
	opt Options

	mu   sync.Mutex
	base *graph.Graph
	// Overlay working state, parallel arrays keyed by the sorted vertex
	// list: verts[i]'s live adjacency is segs[i]. Flattened into
	// graph.NewOverlay arrays at each publish.
	verts []graph.VertexID
	segs  [][]edgeRec

	pending        int64 // deltas since the last compaction
	appliedBatches int64
	appliedDeltas  int64
	compactions    int64

	cur atomic.Pointer[Epoch]
}

// New wraps base (which must be a full, plain CSR) as a dynamic graph
// and publishes epoch 0: the base itself, fingerprinted, with its
// alias rows prebuilt when the base is weighted.
func New(base *graph.Graph, opt Options) (*DynGraph, error) {
	if base == nil {
		return nil, fmt.Errorf("dyngraph: nil base")
	}
	if base.Overlaid() {
		return nil, fmt.Errorf("dyngraph: base must be a plain CSR, not an overlay view")
	}
	if lo, hi := base.OwnedRange(); int(lo) != 0 || int(hi) != base.NumVertices() {
		return nil, fmt.Errorf("dyngraph: base must be a full graph, not a partition slice")
	}
	if opt.CompactAfter < 0 {
		return nil, fmt.Errorf("dyngraph: negative CompactAfter")
	}

	d := &DynGraph{opt: opt, base: base}
	store, err := baseStore(base)
	if err != nil {
		return nil, err
	}
	fp := graph.Fingerprint(base)
	d.cur.Store(&Epoch{
		view:    base,
		fpKnown: true,
		fp:      fp,
		logFP:   chainSeed(fp),
		store:   store,
	})
	return d, nil
}

// baseStore prebuilds the per-vertex alias rows of a plain CSR in one
// slab, or returns nil for unweighted graphs (the engine's uniform draw
// needs no table; there is nothing worth caching).
func baseStore(g *graph.Graph) (*samplerView, error) {
	if !g.Weighted() {
		return nil, nil
	}
	rows := make([][]sampling.AliasEntry, g.NumVertices())
	slab := make([]sampling.AliasEntry, g.NumEdges())
	var scratch sampling.AliasScratch
	for v := range rows {
		id := graph.VertexID(v)
		deg := g.Degree(id)
		if deg == 0 {
			continue
		}
		rows[v], slab = slab[:deg:deg], slab[deg:]
		if err := sampling.BuildAliasRow(rows[v], g.Weights(id), g.Neighbors(id), &scratch); err != nil {
			return nil, fmt.Errorf("dyngraph: vertex %d: %w", v, err)
		}
	}
	return &samplerView{base: rows}, nil
}

// Epoch returns the currently published epoch. The returned value is
// immutable and stays valid (and walkable) forever, including across
// later Apply and Compact calls.
func (d *DynGraph) Epoch() *Epoch {
	return d.cur.Load()
}

// Apply validates and applies one batch of deltas atomically: either the
// whole batch lands and a new epoch is published, or the graph is
// unchanged and an error describes the first offending delta. Sampler
// maintenance is incremental — only vertices named as a Src in the batch
// get their rows rebuilt; everything else is shared with
// the previous epoch.
func (d *DynGraph) Apply(batch []Delta) (*Epoch, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("dyngraph: empty batch")
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	n := d.base.NumVertices()
	weighted := d.base.Weighted()
	typed := d.base.Typed()

	// Copy-on-write working state: the slices are copied up front (cheap
	// pointer copies), individual segments only when first touched, so a
	// failed batch discards cleanly and published epochs are never
	// disturbed.
	verts := append([]graph.VertexID(nil), d.verts...)
	segs := append([][]edgeRec(nil), d.segs...)
	touched := make([]bool, len(verts))

	// ensure returns the working index of v's segment, materializing it
	// from the base adjacency on first touch (O(degree)).
	ensure := func(v graph.VertexID) int {
		i := sort.Search(len(verts), func(i int) bool { return verts[i] >= v })
		if i < len(verts) && verts[i] == v {
			if !touched[i] {
				segs[i] = append([]edgeRec(nil), segs[i]...)
				touched[i] = true
			}
			return i
		}
		adj := d.base.Neighbors(v)
		ws := d.base.Weights(v)
		ts := d.base.Types(v)
		seg := make([]edgeRec, len(adj))
		for j, dst := range adj {
			seg[j].dst = dst
			seg[j].w = 1
			if ws != nil {
				seg[j].w = ws[j]
			}
			if ts != nil {
				seg[j].t = ts[j]
			}
		}
		verts = append(verts, 0)
		copy(verts[i+1:], verts[i:])
		verts[i] = v
		segs = append(segs, nil)
		copy(segs[i+1:], segs[i:])
		segs[i] = seg
		touched = append(touched, false)
		copy(touched[i+1:], touched[i:])
		touched[i] = true
		return i
	}

	for k := range batch {
		del := &batch[k]
		if int(del.Src) >= n || int(del.Dst) >= n {
			return nil, fmt.Errorf("dyngraph: delta %d: edge %d->%d outside |V|=%d (the vertex set is fixed at load)", k, del.Src, del.Dst, n)
		}
		switch del.Op {
		case OpInsert, "":
			w := del.Weight
			if weighted {
				if !(w > 0) || math.IsInf(float64(w), 0) || math.IsNaN(float64(w)) {
					return nil, fmt.Errorf("dyngraph: delta %d: weight %v on a weighted graph, want positive finite", k, w)
				}
			} else {
				if w != 0 && w != 1 {
					return nil, fmt.Errorf("dyngraph: delta %d: weight %v on an unweighted graph", k, w)
				}
				w = 1
			}
			if !typed && del.Type != 0 {
				return nil, fmt.Errorf("dyngraph: delta %d: type %d on an untyped graph", k, del.Type)
			}
			i := ensure(del.Src)
			seg := segs[i]
			j := sort.Search(len(seg), func(j int) bool { return seg[j].dst >= del.Dst })
			if j < len(seg) && seg[j].dst == del.Dst {
				seg[j].w = w
				seg[j].t = del.Type
			} else {
				seg = append(seg, edgeRec{})
				copy(seg[j+1:], seg[j:])
				seg[j] = edgeRec{dst: del.Dst, w: w, t: del.Type}
				segs[i] = seg
			}
		case OpDelete:
			i := ensure(del.Src)
			seg := segs[i]
			j := sort.Search(len(seg), func(j int) bool { return seg[j].dst >= del.Dst })
			if j >= len(seg) || seg[j].dst != del.Dst {
				return nil, fmt.Errorf("dyngraph: delta %d: delete of missing edge %d->%d", k, del.Src, del.Dst)
			}
			segs[i] = append(seg[:j], seg[j+1:]...)
		default:
			return nil, fmt.Errorf("dyngraph: delta %d: unknown op %q", k, del.Op)
		}
	}

	view, err := flatten(d.base, verts, segs)
	if err != nil {
		return nil, err // unreachable if the invariants above hold
	}

	prev := d.cur.Load()
	store, err := prev.store.extend(prev.view, view, verts, touched)
	if err != nil {
		return nil, err
	}

	logFP := prev.logFP
	logFP = mixU64(logFP, markApply)
	logFP = mixU64(logFP, uint64(len(batch)))
	for k := range batch {
		del := &batch[k]
		op := uint64(0)
		if del.Op == OpDelete {
			op = 1
		}
		logFP = mixU64(logFP, op)
		logFP = mixU64(logFP, uint64(del.Src))
		logFP = mixU64(logFP, uint64(del.Dst))
		logFP = mixU64(logFP, uint64(math.Float32bits(del.Weight)))
		logFP = mixU64(logFP, uint64(uint32(del.Type)))
	}

	ep := &Epoch{
		seq:   prev.seq + 1,
		view:  view,
		logFP: logFP,
		store: store,
	}

	d.verts, d.segs = verts, segs
	d.pending += int64(len(batch))
	d.appliedBatches++
	d.appliedDeltas += int64(len(batch))
	d.cur.Store(ep)

	if d.opt.CompactAfter > 0 && d.pending >= int64(d.opt.CompactAfter) {
		return d.compactLocked()
	}
	return ep, nil
}

// flatten materializes the working overlay state into a graph overlay
// view sharing the base arrays.
func flatten(base *graph.Graph, verts []graph.VertexID, segs [][]edgeRec) (*graph.Graph, error) {
	total := 0
	for _, seg := range segs {
		total += len(seg)
	}
	offs := make([]int64, len(verts)+1)
	dst := make([]graph.VertexID, 0, total)
	var weight []float32
	var etype []int32
	if base.Weighted() {
		weight = make([]float32, 0, total)
	}
	if base.Typed() {
		etype = make([]int32, 0, total)
	}
	for i, seg := range segs {
		for _, e := range seg {
			dst = append(dst, e.dst)
			if weight != nil {
				weight = append(weight, e.w)
			}
			if etype != nil {
				etype = append(etype, e.t)
			}
		}
		offs[i+1] = int64(len(dst))
	}
	return graph.NewOverlay(base, verts, offs, dst, weight, etype)
}

// Metrics returns a consistent snapshot of the counters.
func (d *DynGraph) Metrics() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	ep := d.cur.Load()
	dv, de := ep.DeltaStats()
	return Metrics{
		Epoch:          ep.seq,
		DeltaVertices:  dv,
		DeltaEdges:     de,
		PendingDeltas:  d.pending,
		AppliedBatches: d.appliedBatches,
		AppliedDeltas:  d.appliedDeltas,
		Compactions:    d.compactions,
	}
}

// FNV-1a 64-bit chaining for the epoch delta-log fingerprint: the epoch
// identity is a pure function of (base fingerprint, ordered batches,
// compaction points), so two services that ingested the same history
// address the same epoch.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	markApply   = 1
	markCompact = 2
)

func chainSeed(baseFP uint64) uint64 {
	return mixU64(fnvOffset64, baseFP)
}

func mixU64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (v >> i) & 0xff
		h *= fnvPrime64
	}
	return h
}
