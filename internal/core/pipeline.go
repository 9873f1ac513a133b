package core

// The interleaved stepping pipeline (ThunderRW-style step interleaving):
// phase A claims walker batches and executes each step as three stages run
// stage-at-a-time across the batch —
//
//	gather: load each walker's degree, alias row, and rejection
//	        dartboard (pure loads, no RNG);
//	move:   run the step decision, consuming each walker's private RNG
//	        stream (decideStep, shared with scalar stepping; for biased
//	        static walks moveStatic, which prefetches each drawn entry);
//	update: apply the decided outcomes — relocation, result recording,
//	        destination-grouped message emission (applyAction).
//
// Splitting the stages batches the irregular adjacency/sampler reads of
// many walkers together, giving the memory subsystem independent accesses
// to overlap instead of one dependent chain per walker, and groups the
// update stage's migration/query encoding by destination partition.
// Because a walker draws only from its own stream and the gather stage
// draws nothing, stage order across walkers cannot change any walker's
// draw sequence: interleaved output is bit-identical to scalar stepping.
//
// This file also holds the supporting allocation-free machinery: the
// walker arena (walkerPool), per-worker persistent state (workerState),
// and the batched counter accumulator (batchCounters).

import (
	"sync"
	"time"

	"knightking/internal/graph"
	"knightking/internal/prefetch"
	"knightking/internal/sampling"
	"knightking/internal/stats"
)

// walkerBatch carries one destination's object-path migrations through
// transport.LocalSender. Batches cycle through a process-wide pool: the
// sender takes one per (dest, flush), the receiver returns it after folding
// the walkers into its list — so steady-state migration sends allocate
// nothing. A pointer (not a slice) is what crosses the transport because
// storing a pointer in an interface value does not allocate.
type walkerBatch struct {
	ws []*Walker
}

var walkerBatchPool = sync.Pool{New: func() any { return new(walkerBatch) }}

// recycle clears the batch (dropping walker references so the receiver's
// arena owns them alone) and returns it to the pool.
//
//kk:hotpath
func (b *walkerBatch) recycle() {
	clear(b.ws)
	b.ws = b.ws[:0]
	walkerBatchPool.Put(b)
}

// workerState is one worker goroutine's persistent scratch: output staging
// buffers, parked/freed walker lists, batch arrays, full-scan scratch, and
// locally accumulated counters. It lives for the whole run, so the
// steady-state walker and message path allocates nothing.
type workerState struct {
	out    *outBufs
	parked []*Walker // walkers parked on queries this phase
	free   []*Walker // recycled storage, drained into the pool at barriers

	counters batchCounters

	// Full-scan fallback scratch (fullScanChoose).
	scanWeights []float64
	scanITS     sampling.ITS

	batch batchState

	gatherNs, moveNs, updateNs int64
}

func newWorkerState(eps int) *workerState {
	return &workerState{out: newOutBufs(eps)}
}

// batchCounters accumulates a worker's counter increments locally; flush
// folds them into the shared atomic counters once per phase. The hot path
// previously paid two contended atomic adds per step (false sharing across
// workers); now it pays plain increments plus a handful of atomic adds per
// superstep. The trials-per-step distribution rides along the same way;
// a static step, always one dart, bumps oneDartSteps alone, which flush
// folds into both Trials and the distribution.
type batchCounters struct {
	trials, preAccepts, appendixHits, edgeProbEvals int64
	queries, steps, restarts, terminations          int64
	oneDartSteps                                    int64
	stepTrials                                      stats.Pow2Counts
}

//
//kk:hotpath
func (bc *batchCounters) flush(c *stats.Counters) {
	if bc.oneDartSteps != 0 {
		bc.trials += bc.oneDartSteps
		bc.stepTrials.ObserveN(1, bc.oneDartSteps)
		bc.oneDartSteps = 0
	}
	if bc.trials != 0 {
		c.Trials.Add(bc.trials)
		bc.trials = 0
	}
	if bc.preAccepts != 0 {
		c.PreAccepts.Add(bc.preAccepts)
		bc.preAccepts = 0
	}
	if bc.appendixHits != 0 {
		c.AppendixHits.Add(bc.appendixHits)
		bc.appendixHits = 0
	}
	if bc.edgeProbEvals != 0 {
		c.EdgeProbEvals.Add(bc.edgeProbEvals)
		bc.edgeProbEvals = 0
	}
	if bc.queries != 0 {
		c.Queries.Add(bc.queries)
		bc.queries = 0
	}
	if bc.steps != 0 {
		c.Steps.Add(bc.steps)
		bc.steps = 0
	}
	if bc.restarts != 0 {
		c.Restarts.Add(bc.restarts)
		bc.restarts = 0
	}
	if bc.terminations != 0 {
		c.Terminations.Add(bc.terminations)
		bc.terminations = 0
	}
	if bc.stepTrials.Count != 0 {
		c.StepTrials.Add(&bc.stepTrials)
		bc.stepTrials = stats.Pow2Counts{}
	}
}

// walkerPool is a slab-backed arena of reusable walkers. Only the node's
// loop goroutine calls into it (seeding, migration decode, barrier
// drains); workers stage frees in their workerState, so no locking is
// needed. A recycled walker keeps stale field values and History/Path
// backing capacity — callers must overwrite what they rely on
// (decodeWalkerInto overwrites everything).
type walkerPool struct {
	free []*Walker
	slab []Walker
}

const poolSlabSize = 256

//
//kk:hotpath
func (p *walkerPool) get() *Walker {
	if k := len(p.free); k > 0 {
		w := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return w
	}
	if len(p.slab) == 0 {
		p.slab = make([]Walker, poolSlabSize) //kk:alloc-ok amortized: one slab allocation serves poolSlabSize walkers
	}
	w := &p.slab[0]
	p.slab = p.slab[1:]
	return w
}

func (p *walkerPool) put(w *Walker) { p.free = append(p.free, w) }

// putAll drains a worker's staged frees into the pool.
//
//kk:hotpath
func (p *walkerPool) putAll(ws *[]*Walker) {
	p.free = append(p.free, *ws...)
	for i := range *ws {
		(*ws)[i] = nil
	}
	*ws = (*ws)[:0]
}

// batchState holds one worker's per-batch arrays: the ready walkers of the
// claimed chunk, their original slots in the walker list, and the
// gathered/decided per-walker values each stage hands to the next.
type batchState struct {
	w    []*Walker
	slot []int32
	deg  []int32
	row  [][]sampling.AliasEntry
	rej  []*sampling.Rejection
	act  []action
	k    []int32 // biased static walks: the drawn alias bucket
	dst  []graph.VertexID
}

func (b *batchState) grow(k int) {
	if cap(b.w) >= k {
		return
	}
	b.w = make([]*Walker, k)                 //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.slot = make([]int32, k)                //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.deg = make([]int32, k)                 //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.row = make([][]sampling.AliasEntry, k) //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.rej = make([]*sampling.Rejection, k)   //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.act = make([]action, k)                //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.k = make([]int32, k)                   //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
	b.dst = make([]graph.VertexID, k)        //kk:alloc-ok amortized: batch arrays grow to the chunk size once, then are reused
}

// stepBatch advances walkers [base, end) through one step, stage-at-a-time
// across the batch. Per-stage wall time is accumulated only when an
// observer is attached, so the unobserved hot path takes no clock reads.
//
//kk:hotpath
func (n *node) stepBatch(ws []*Walker, base, end int, keep []bool, st *workerState) {
	b := &st.batch
	b.grow(end - base)
	timed := n.obs != nil
	var t0 time.Time
	if timed {
		t0 = time.Now() //kk:nondet-ok telemetry-only stage timing; never feeds walk state
	}

	// Gather: collect each ready walker's degree, alias row, and dartboard.
	m := 0
	for i := base; i < end; i++ {
		w := ws[i]
		if w.awaiting {
			keep[i] = true // parked in an earlier superstep
			continue
		}
		b.w[m] = w
		b.slot[m] = int32(i)
		deg, row, rj := n.tablesAt(w.Cur)
		b.deg[m], b.row[m], b.rej[m] = int32(deg), row, rj
		m++
	}
	if timed {
		t1 := time.Now() //kk:nondet-ok telemetry-only stage timing; never feeds walk state
		st.gatherNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}

	// Move: run the decisions, consuming each walker's private stream in
	// the same order the scalar loop would.
	if n.rows != nil && !n.alg.dynamic() {
		n.moveStatic(b, m, st)
	} else {
		for j := 0; j < m; j++ {
			b.act[j], b.dst[j] = n.decideStep(b.w[j], int(b.deg[j]), b.row[j], b.rej[j], st)
		}
	}
	if timed {
		t1 := time.Now() //kk:nondet-ok telemetry-only stage timing; never feeds walk state
		st.moveNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}

	// Update: apply the decided outcomes and mark survivors.
	for j := 0; j < m; j++ {
		keep[b.slot[j]] = n.applyAction(b.w[j], b.act[j], b.dst[j], st)
	}
	if timed {
		st.updateNs += time.Since(t0).Nanoseconds() //kk:nondet-ok telemetry-only stage timing; never feeds walk state
	}
}

// moveStatic is the move stage of a biased static walk (n.rows set),
// split into two passes over the batch so that each walker's drawn alias
// entry is on its way from memory while the first pass draws for the
// walkers after it. Pass (a) runs the Pe checks and the bucket draw and
// prefetches row[k]; pass (b) flips the coin and reads the alias branch
// and Dst. Each walker still draws in decideStep's order (Pe draws, Intn,
// Float64), so walks are bit-identical to scalar stepping. Uniform statics
// stay on decideStep: a prefetch of the drawn CSR slot was not faster
// often enough in alternating runs to keep.
//
//kk:hotpath
func (n *node) moveStatic(b *batchState, m int, st *workerState) {
	bc := &st.counters
	for j := 0; j < m; j++ {
		w := b.w[j]
		act, ended := n.stepBoundary(w, int(b.deg[j]))
		if ended {
			b.act[j] = act
			continue
		}
		b.act[j] = actMove
		bc.oneDartSteps++
		n.traceStep(w, 1)
		row := b.row[j]
		k := sampling.AliasBucket(row, &w.R)
		prefetch.T0(&row[k])
		b.k[j] = int32(k)
	}
	for j := 0; j < m; j++ {
		if b.act[j] == actMove {
			row := b.row[j]
			b.dst[j] = row[sampling.ResolveAlias(row, int(b.k[j]), b.w[j].R.Float64())].Dst
		}
	}
}
