// Package dyngraph adds dynamic graphs to the engine: a delta layer over
// the immutable CSR with an epoch/snapshot model. Writers apply batches
// of edge insertions and deletions; each batch publishes a new immutable
// Epoch whose view is a graph.Graph overlay (per-vertex replacement
// segments in copy-on-write pages over the shared base arrays), derived
// from the previous epoch's in O(batch), while walks keep running against
// whichever epoch they admitted on. A compactor folds
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
// The package therefore keeps every structure in sorted slices and
// vertex-indexed pages — no maps anywhere on the apply/compact path — and
// carries no clocks; timing
// belongs to the serving layer.
package dyngraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"knightking/internal/graph"
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

// DynGraph is a dynamic graph: a sequence of immutable epochs, each an
// overlay of per-vertex segments over a shared base CSR. The current
// epoch is the whole writer state: Apply derives the next epoch from it,
// Compact folds it into a fresh base. Apply and Compact are serialized by
// an internal mutex; Epoch is lock-free and safe from any goroutine.
type DynGraph struct {
	opt Options

	mu             sync.Mutex
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

	rows, err := baseRows(base)
	if err != nil {
		return nil, err
	}
	fp := graph.Fingerprint(base)
	d := &DynGraph{opt: opt}
	d.cur.Store(&Epoch{
		view:    base,
		fpKnown: true,
		fp:      fp,
		logFP:   chainSeed(fp),
		rows:    rows,
	})
	return d, nil
}

// Epoch returns the currently published epoch. The returned value is
// immutable and stays valid (and walkable) forever, including across
// later Apply and Compact calls.
func (d *DynGraph) Epoch() *Epoch {
	return d.cur.Load()
}

// Apply validates and applies one batch of deltas atomically: either the
// whole batch lands and a new epoch is published, or the graph is
// unchanged and an error describes the first offending delta. The cost
// is O(batch) plus the degrees of the touched sources, however many
// deltas are pending: only vertices named as a Src in the batch get new
// segments and alias rows; everything else is shared with the previous
// epoch through its copy-on-write pages.
func (d *DynGraph) Apply(batch []Delta) (*Epoch, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("dyngraph: empty batch")
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	prev := d.cur.Load()
	verts, segs, err := replay(prev.view, batch)
	if err != nil {
		return nil, err
	}
	view, err := graph.Derive(prev.view, verts, segs)
	if err != nil {
		return nil, err // unreachable if replay's invariants hold
	}
	rows, err := prev.rows.with(view, verts)
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
		rows:  rows,
	}
	d.pending += int64(len(batch))
	d.appliedBatches++
	d.appliedDeltas += int64(len(batch))
	d.cur.Store(ep)

	if d.opt.CompactAfter > 0 && d.pending >= int64(d.opt.CompactAfter) {
		return d.compactLocked()
	}
	return ep, nil
}

// replay applies batch to the adjacency of g and returns the touched
// sources, strictly increasing, with their new segments. The deltas are
// grouped by source with a stable sort, so each source replays its own
// deltas in batch order over a fresh copy of its current adjacency. A
// delta's validity depends only on earlier deltas of its own source, so
// the smallest failing index over all groups is the delta a replay in
// batch order would have stopped at, and that is the one the error names.
func replay(g *graph.Graph, batch []Delta) ([]graph.VertexID, []graph.Segment, error) {
	order := make([]int, len(batch))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(batch[a].Src, batch[b].Src) })

	var verts []graph.VertexID
	var segs []graph.Segment
	bad, badErr := len(batch), error(nil)
	for lo := 0; lo < len(order); {
		src := batch[order[lo]].Src
		hi := lo + 1
		for hi < len(order) && batch[order[hi]].Src == src {
			hi++
		}
		seg, k, err := replaySource(g, batch, order[lo:hi])
		if err != nil && k < bad {
			bad, badErr = k, err
		}
		verts = append(verts, src)
		segs = append(segs, seg)
		lo = hi
	}
	return verts, segs, badErr
}

// replaySource applies the deltas batch[idx[...]], all with the same
// source, to a copy of that source's adjacency in g. On failure it
// returns the offending delta's index in batch.
func replaySource(g *graph.Graph, batch []Delta, idx []int) (graph.Segment, int, error) {
	n := g.NumVertices()
	src := batch[idx[0]].Src
	var s graph.Segment
	if int(src) < n {
		grow := g.Degree(src) + len(idx)
		s.Dst = append(make([]graph.VertexID, 0, grow), g.Neighbors(src)...)
		if g.Weighted() {
			s.Weight = append(make([]float32, 0, grow), g.Weights(src)...)
		}
		if g.Typed() {
			s.Type = append(make([]int32, 0, grow), g.Types(src)...)
		}
	}
	for _, k := range idx {
		del := &batch[k]
		if int(del.Src) >= n || int(del.Dst) >= n {
			return s, k, fmt.Errorf("dyngraph: delta %d: edge %d->%d outside |V|=%d (the vertex set is fixed at load)", k, del.Src, del.Dst, n)
		}
		j, found := slices.BinarySearch(s.Dst, del.Dst)
		switch del.Op {
		case OpInsert, "":
			w := del.Weight
			if g.Weighted() {
				if !(w > 0) || math.IsInf(float64(w), 0) || math.IsNaN(float64(w)) {
					return s, k, fmt.Errorf("dyngraph: delta %d: weight %v on a weighted graph, want positive finite", k, w)
				}
			} else if w != 0 && w != 1 {
				return s, k, fmt.Errorf("dyngraph: delta %d: weight %v on an unweighted graph", k, w)
			}
			if !g.Typed() && del.Type != 0 {
				return s, k, fmt.Errorf("dyngraph: delta %d: type %d on an untyped graph", k, del.Type)
			}
			if !found {
				s.Dst = slices.Insert(s.Dst, j, del.Dst)
				if s.Weight != nil {
					s.Weight = slices.Insert(s.Weight, j, 0)
				}
				if s.Type != nil {
					s.Type = slices.Insert(s.Type, j, 0)
				}
			}
			if s.Weight != nil {
				s.Weight[j] = w
			}
			if s.Type != nil {
				s.Type[j] = del.Type
			}
		case OpDelete:
			if !found {
				return s, k, fmt.Errorf("dyngraph: delta %d: delete of missing edge %d->%d", k, del.Src, del.Dst)
			}
			s.Dst = slices.Delete(s.Dst, j, j+1)
			if s.Weight != nil {
				s.Weight = slices.Delete(s.Weight, j, j+1)
			}
			if s.Type != nil {
				s.Type = slices.Delete(s.Type, j, j+1)
			}
		default:
			return s, k, fmt.Errorf("dyngraph: delta %d: unknown op %q", k, del.Op)
		}
	}
	return s, 0, nil
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
