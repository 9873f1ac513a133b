// Snapshot encoding and the engine side of checkpoint/recovery.
//
// A checkpoint is taken at the superstep barrier right after the first
// exchange: every migration sent so far has been folded into some rank's
// walker list, no query responses are outstanding, and the only in-flight
// records — the current superstep's state queries — are re-derivable from
// the parked walkers' pending darts. Each rank therefore serializes just
// its own walker list (via the migration codec, extended with the pending
// dart for awaiting walkers) plus, on the result-owning rank, the
// accumulated result sinks and counters. Resume reloads the segments,
// re-issues the outstanding queries, and continues the superstep loop;
// because every walker carries its private RNG stream, the remaining walk
// is bit-identical to an uninterrupted run.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"knightking/internal/graph"
	"knightking/internal/stats"
)

// Snapshot segment blob layout (little-endian):
//
//	0   magic "KKS1"
//	4   version   u16 (= 2; v2 appended the ExchangeNanos counter word)
//	6   flags     u16 (bit 0: result+counters section present)
//	8   rank      u32
//	12  numRanks  u32
//	16  iteration u64
//	24  seed      u64
//	32  numWalkers  u64
//	40  numVertices u64
//	48  walkerCount u64
//	56  resultOff   u64 (byte offset of the result section; 0 = none)
//	64  walker records (migration codec, pending dart included)
//	... result section (counters, length histogram, visits, paths)
const (
	snapMagic     = "KKS1"
	snapVersion   = 2
	snapHeaderLen = 64

	snapFlagResults = 1 << 0
)

// ckptRecordLen is the wire size of one kCkpt segment descriptor.
const ckptRecordLen = 4 + 8 + 8

// snapHeader is the decoded fixed part of a segment blob.
type snapHeader struct {
	flags       uint16
	rank        int
	numRanks    int
	iteration   int
	seed        uint64
	numWalkers  int64
	numVertices int64
	walkerCount int64
	resultOff   int64
}

// checkpointDue reports whether this superstep ends with a snapshot. The
// condition depends only on loop-synchronized state, so every rank agrees.
func (n *node) checkpointDue(iteration int) bool {
	sink := n.cfg.Checkpoint
	if sink == nil {
		return false
	}
	every := sink.Interval()
	return every > 0 && iteration%every == 0
}

// writeCheckpoint snapshots this rank and participates in the commit
// barrier: every rank writes its segment, sends a descriptor to rank 0,
// and enters one extra exchange. Once that exchange returns, all segments
// are durable and rank 0 commits the manifest. Any failure aborts the run
// (the previous complete checkpoint remains the recovery point). It
// returns the size of this rank's segment.
func (n *node) writeCheckpoint(iteration int) (int64, error) {
	start := time.Now() //kk:nondet-ok telemetry-only timing; never feeds walk state
	blob := n.encodeSnapshot(iteration)
	info, werr := n.cfg.Checkpoint.WriteSegment(iteration, n.rank, blob)
	if werr == nil {
		var rec [ckptRecordLen]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(info.Rank))
		binary.LittleEndian.PutUint64(rec[4:], uint64(info.Size))
		binary.LittleEndian.PutUint64(rec[12:], info.CRC)
		n.ep.Send(0, kCkpt, rec[:])
	}
	// A rank that failed its write still enters the barrier (skipping it
	// would deadlock the collective) but sends no descriptor, which rank 0
	// detects as an incomplete segment set.
	msgs, err := n.exchange()
	if err != nil {
		return 0, err
	}
	if werr != nil {
		return 0, fmt.Errorf("core: checkpoint segment at superstep %d: %w", iteration, werr)
	}
	n.counters.CheckpointBytes.Add(int64(len(blob)))
	n.counters.CheckpointNanos.Add(time.Since(start).Nanoseconds()) //kk:nondet-ok telemetry-only timing; never feeds walk state
	if n.rank != 0 {
		if len(msgs) != 0 {
			return 0, fmt.Errorf("core: unexpected %d messages at checkpoint barrier on rank %d", len(msgs), n.rank)
		}
		return int64(len(blob)), nil
	}
	segs := make([]SegmentInfo, 0, n.ep.Size())
	for _, m := range msgs {
		if m.Kind != kCkpt || len(m.Payload) != ckptRecordLen {
			return 0, fmt.Errorf("core: malformed checkpoint descriptor from rank %d", m.From)
		}
		segs = append(segs, SegmentInfo{
			Rank: int(binary.LittleEndian.Uint32(m.Payload[0:])),
			Size: int64(binary.LittleEndian.Uint64(m.Payload[4:])),
			CRC:  binary.LittleEndian.Uint64(m.Payload[12:]),
		})
	}
	if len(segs) != n.ep.Size() {
		return 0, fmt.Errorf("core: checkpoint at superstep %d incomplete: %d of %d segments", iteration, len(segs), n.ep.Size())
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Rank < segs[j].Rank })
	for i, s := range segs {
		if s.Rank != i {
			return 0, fmt.Errorf("core: checkpoint descriptors are not a permutation of ranks")
		}
	}
	if err := n.cfg.Checkpoint.Commit(iteration, segs); err != nil {
		return 0, fmt.Errorf("core: checkpoint commit at superstep %d: %w", iteration, err)
	}
	n.counters.Checkpoints.Add(1)
	return int64(len(blob)), nil
}

// resendPendingQueries re-issues the outstanding state queries of awaiting
// walkers after a restore, so their responses arrive in the first resumed
// superstep exactly as the original queries' would have. Not counted in
// stats.Queries: the original sends were counted before the snapshot.
func (n *node) resendPendingQueries() {
	for _, w := range n.walkers {
		if !w.awaiting {
			continue
		}
		n.loop.out.addQuery(n.part.Owner(w.pendingTarget), w.ID, w.pendingTarget, w.pendingArg)
	}
	n.loop.out.flush(n.ep, n.localMig)
}

// encodeSnapshot serializes this rank's state at the given superstep.
func (n *node) encodeSnapshot(iteration int) []byte {
	var flags uint16
	if n.ownsResult {
		flags |= snapFlagResults
	}
	size := snapHeaderLen
	for _, w := range n.walkers {
		size += walkerLen(w)
	}
	if n.ownsResult {
		size += resultsLen(n.res)
	}
	buf := make([]byte, snapHeaderLen, size)
	copy(buf[0:], snapMagic)
	binary.LittleEndian.PutUint16(buf[4:], snapVersion)
	binary.LittleEndian.PutUint16(buf[6:], flags)
	binary.LittleEndian.PutUint32(buf[8:], uint32(n.rank))
	binary.LittleEndian.PutUint32(buf[12:], uint32(n.ep.Size()))
	binary.LittleEndian.PutUint64(buf[16:], uint64(iteration))
	binary.LittleEndian.PutUint64(buf[24:], n.cfg.Seed)
	binary.LittleEndian.PutUint64(buf[32:], uint64(n.cfg.NumWalkers))
	binary.LittleEndian.PutUint64(buf[40:], uint64(n.g.NumVertices()))
	binary.LittleEndian.PutUint64(buf[48:], uint64(len(n.walkers)))
	for _, w := range n.walkers {
		buf = encodeWalker(buf, w)
	}
	if n.ownsResult {
		binary.LittleEndian.PutUint64(buf[56:], uint64(len(buf)))
		buf = appendResults(buf, n.counters.Snapshot(), n.res)
	}
	return buf
}

// resultsLen is the byte length appendResults gives res's section.
func resultsLen(res *Result) int {
	// Counter words, the length histogram, and the visits and paths flags.
	size := 4 + 8*len(counterWords(stats.Snapshot{})) + 4 + 3*8 + 1 + 1
	res.Lengths.View(func(hs stats.HistogramState) { size += 8 * len(hs.Buckets) })
	if res.Visits != nil {
		size += 8 + 8*len(res.Visits)
	}
	if res.Paths != nil {
		size += 8
		for _, p := range res.Paths {
			if p != nil {
				size += 8 + 4 + 4*len(p)
			}
		}
	}
	return size
}

// appendResults serializes the counters and result sinks.
func appendResults(buf []byte, c stats.Snapshot, res *Result) []byte {
	words := counterWords(c)
	buf = appendU32(buf, uint32(len(words)))
	for _, v := range words {
		buf = appendU64(buf, uint64(v))
	}
	res.Lengths.View(func(hs stats.HistogramState) {
		buf = appendU32(buf, uint32(len(hs.Buckets)))
		for _, b := range hs.Buckets {
			buf = appendU64(buf, uint64(b))
		}
		buf = appendU64(buf, uint64(hs.Count))
		buf = appendU64(buf, uint64(hs.Sum))
		buf = appendU64(buf, uint64(hs.Max))
	})
	if res.Visits != nil {
		buf = append(buf, 1)
		buf = appendU64(buf, uint64(len(res.Visits)))
		for _, v := range res.Visits {
			buf = appendU64(buf, uint64(v))
		}
	} else {
		buf = append(buf, 0)
	}
	if res.Paths != nil {
		buf = append(buf, 1)
		var done uint64
		for _, p := range res.Paths {
			if p != nil {
				done++
			}
		}
		buf = appendU64(buf, done)
		for id, p := range res.Paths {
			if p == nil {
				continue
			}
			buf = appendU64(buf, uint64(id))
			buf = appendU32(buf, uint32(len(p)))
			for _, v := range p {
				buf = appendU32(buf, v)
			}
		}
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// restoreSnapshot loads this rank's walker state from rst and validates it
// against the run configuration (defense in depth on top of the sink's
// whole-file checksums).
func (n *node) restoreSnapshot(rst *RestoreState) error {
	if n.rank >= len(rst.Segments) || rst.Segments[n.rank] == nil {
		return fmt.Errorf("core: restore has no segment for rank %d", n.rank)
	}
	blob := rst.Segments[n.rank]
	h, err := parseSnapshotHeader(blob)
	if err != nil {
		return err
	}
	switch {
	case h.rank != n.rank:
		return fmt.Errorf("core: segment is for rank %d, not %d", h.rank, n.rank)
	case h.numRanks != n.ep.Size():
		return fmt.Errorf("core: checkpoint has %d ranks, run has %d (rank-count changes are not supported)", h.numRanks, n.ep.Size())
	case h.iteration != rst.Iteration:
		return fmt.Errorf("core: segment superstep %d != manifest superstep %d", h.iteration, rst.Iteration)
	case h.seed != n.cfg.Seed:
		return fmt.Errorf("core: checkpoint seed %d != config seed %d", h.seed, n.cfg.Seed)
	case h.numWalkers != int64(n.cfg.NumWalkers):
		return fmt.Errorf("core: checkpoint has %d walkers, config has %d", h.numWalkers, n.cfg.NumWalkers)
	case h.numVertices != int64(n.g.NumVertices()):
		return fmt.Errorf("core: checkpoint graph has %d vertices, config graph has %d", h.numVertices, n.g.NumVertices())
	}
	rest := blob[snapHeaderLen:]
	walkerEnd := int64(len(blob))
	if h.resultOff != 0 {
		walkerEnd = h.resultOff
	}
	seen := make(map[int64]struct{}, h.walkerCount)
	for i := int64(0); i < h.walkerCount; i++ {
		w, r, err := decodeWalker(rest)
		if err != nil {
			return fmt.Errorf("core: segment walker %d: %w", i, err)
		}
		rest = r
		if err := n.validateRestoredWalker(w, seen); err != nil {
			return err
		}
		if n.cfg.RecordPaths && w.Path == nil {
			return fmt.Errorf("core: RecordPaths is set but checkpointed walker %d carries no path", w.ID)
		}
		if !n.cfg.RecordPaths {
			w.Path = nil
		}
		n.setTraced(w)
		n.walkers = append(n.walkers, w)
		if w.awaiting {
			n.parkedByID[w.ID] = w
		}
	}
	if got := int64(len(blob)) - int64(len(rest)); got != walkerEnd {
		return fmt.Errorf("core: segment walker records end at byte %d, want %d", got, walkerEnd)
	}
	n.startIter = rst.Iteration
	n.resumed = true
	return nil
}

// validateRestoredWalker bounds-checks one decoded walker against the
// graph, the partition, and the walker ID space.
func (n *node) validateRestoredWalker(w *Walker, seen map[int64]struct{}) error {
	if w.ID < 0 || w.ID >= int64(n.cfg.NumWalkers) {
		return fmt.Errorf("core: restored walker ID %d outside [0, %d)", w.ID, n.cfg.NumWalkers)
	}
	if _, dup := seen[w.ID]; dup {
		return fmt.Errorf("core: restored walker ID %d duplicated", w.ID)
	}
	seen[w.ID] = struct{}{}
	numV := graph.VertexID(n.g.NumVertices())
	if w.Cur >= numV || w.Origin >= numV {
		return fmt.Errorf("core: restored walker %d at vertex %d outside the graph", w.ID, w.Cur)
	}
	if !n.part.Owns(n.rank, w.Cur) {
		return fmt.Errorf("core: restored walker %d at vertex %d not owned by rank %d", w.ID, w.Cur, n.rank)
	}
	if w.awaiting {
		if n.parkedByID == nil {
			return fmt.Errorf("core: restored walker %d awaits a state query, but %s is not a higher-order walk", w.ID, n.alg.Name)
		}
		if int(w.pendingEdge) < 0 || int(w.pendingEdge) >= n.g.Degree(w.Cur) {
			return fmt.Errorf("core: restored walker %d pending edge %d outside degree %d", w.ID, w.pendingEdge, n.g.Degree(w.Cur))
		}
		if w.pendingTarget >= numV {
			return fmt.Errorf("core: restored walker %d pending query target %d outside the graph", w.ID, w.pendingTarget)
		}
	}
	return nil
}

// applyRestoredResults merges the result sections of the given ranks'
// segments into the process's result sinks and counters. Run passes every
// rank (it hosts the whole cluster); RunNode passes only its own, keeping
// cluster-wide sums correct without double counting across processes.
func applyRestoredResults(rst *RestoreState, ranks []int, res *Result, counters *stats.Counters) error {
	for _, rank := range ranks {
		if rank >= len(rst.Segments) || rst.Segments[rank] == nil {
			continue
		}
		blob := rst.Segments[rank]
		h, err := parseSnapshotHeader(blob)
		if err != nil {
			return err
		}
		if h.flags&snapFlagResults == 0 {
			continue
		}
		if err := mergeResults(blob[h.resultOff:], rank, res, counters); err != nil {
			return err
		}
	}
	return nil
}

// mergeResults decodes one result section and folds it into res/counters.
func mergeResults(buf []byte, rank int, res *Result, counters *stats.Counters) error {
	d := &decoder{buf: buf, what: fmt.Sprintf("rank %d result section", rank)}
	nc := int(d.u32())
	if nc != numCounterWords {
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("core: %s has %d counters, want %d", d.what, nc, numCounterWords)
	}
	words := make([]int64, nc)
	for i := range words {
		words[i] = int64(d.u64())
	}
	nb := int(d.u32())
	if d.err == nil && nb > len(d.buf)/8 {
		return fmt.Errorf("core: %s histogram claims %d buckets in %d bytes", d.what, nb, len(d.buf))
	}
	hs := stats.HistogramState{Buckets: make([]int64, nb)}
	for i := range hs.Buckets {
		hs.Buckets[i] = int64(d.u64())
	}
	hs.Count = int64(d.u64())
	hs.Sum = int64(d.u64())
	hs.Max = int64(d.u64())
	hasVisits := d.u8() != 0
	var visits []int64
	if hasVisits {
		nv := int(d.u64())
		if d.err == nil && nv > len(d.buf)/8 {
			return fmt.Errorf("core: %s claims %d visit counts in %d bytes", d.what, nv, len(d.buf))
		}
		visits = make([]int64, nv)
		for i := range visits {
			visits[i] = int64(d.u64())
		}
	}
	type pathEntry struct {
		id   int64
		path []graph.VertexID
	}
	var paths []pathEntry
	hasPaths := d.u8() != 0
	if hasPaths {
		np := int(d.u64())
		for i := 0; i < np && d.err == nil; i++ {
			id := int64(d.u64())
			plen := int(d.u32())
			if d.err == nil && plen > len(d.buf)/4 {
				return fmt.Errorf("core: %s path %d claims %d vertices in %d bytes", d.what, id, plen, len(d.buf))
			}
			p := make([]graph.VertexID, plen)
			for j := range p {
				p[j] = d.u32()
			}
			paths = append(paths, pathEntry{id: id, path: p})
		}
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: %s has %d trailing bytes", d.what, len(d.buf))
	}

	// Everything decoded cleanly; apply.
	counters.Add(wordsToCounters(words))
	if err := res.Lengths.AddState(hs); err != nil {
		return fmt.Errorf("core: %s: %w", d.what, err)
	}
	if res.Visits != nil {
		if visits == nil {
			return fmt.Errorf("core: CountVisits is set but the checkpoint carries no visit counts")
		}
		if len(visits) != len(res.Visits) {
			return fmt.Errorf("core: checkpoint has %d visit counts, run has %d vertices", len(visits), len(res.Visits))
		}
		for i, v := range visits {
			res.Visits[i] += v
		}
	}
	if res.Paths != nil {
		if !hasPaths {
			// A checkpoint written without RecordPaths cannot back-fill
			// terminated walkers' paths.
			return fmt.Errorf("core: RecordPaths is set but the checkpoint carries no paths")
		}
		for _, e := range paths {
			if e.id < 0 || e.id >= int64(len(res.Paths)) {
				return fmt.Errorf("core: checkpointed path for walker %d outside [0, %d)", e.id, len(res.Paths))
			}
			res.Paths[e.id] = e.path
		}
	}
	return nil
}

// parseSnapshotHeader decodes and sanity-checks the fixed segment header.
func parseSnapshotHeader(blob []byte) (snapHeader, error) {
	var h snapHeader
	if len(blob) < snapHeaderLen {
		return h, fmt.Errorf("core: snapshot segment truncated (%d bytes)", len(blob))
	}
	if string(blob[0:4]) != snapMagic {
		return h, fmt.Errorf("core: bad snapshot magic %q", blob[0:4])
	}
	if v := binary.LittleEndian.Uint16(blob[4:]); v != snapVersion {
		return h, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	h.flags = binary.LittleEndian.Uint16(blob[6:])
	if h.flags&^uint16(snapFlagResults) != 0 {
		return h, fmt.Errorf("core: unknown snapshot flags %#x", h.flags)
	}
	h.rank = int(binary.LittleEndian.Uint32(blob[8:]))
	h.numRanks = int(binary.LittleEndian.Uint32(blob[12:]))
	h.iteration = int(binary.LittleEndian.Uint64(blob[16:]))
	h.seed = binary.LittleEndian.Uint64(blob[24:])
	h.numWalkers = int64(binary.LittleEndian.Uint64(blob[32:]))
	h.numVertices = int64(binary.LittleEndian.Uint64(blob[40:]))
	h.walkerCount = int64(binary.LittleEndian.Uint64(blob[48:]))
	h.resultOff = int64(binary.LittleEndian.Uint64(blob[56:]))
	if h.numRanks <= 0 || h.rank < 0 || h.rank >= h.numRanks {
		return h, fmt.Errorf("core: snapshot rank %d of %d invalid", h.rank, h.numRanks)
	}
	if h.iteration <= 0 || h.walkerCount < 0 || h.numWalkers < 0 || h.numVertices <= 0 {
		return h, fmt.Errorf("core: snapshot header values out of range")
	}
	if h.walkerCount > int64(len(blob))/walkerFixedLen+1 {
		return h, fmt.Errorf("core: snapshot claims %d walkers in %d bytes", h.walkerCount, len(blob))
	}
	hasResults := h.flags&snapFlagResults != 0
	if hasResults && (h.resultOff < snapHeaderLen || h.resultOff > int64(len(blob))) {
		return h, fmt.Errorf("core: snapshot result section offset %d out of range", h.resultOff)
	}
	if !hasResults && h.resultOff != 0 {
		return h, fmt.Errorf("core: snapshot has a result offset but no result flag")
	}
	return h, nil
}

// counterWords flattens a counter snapshot into a fixed-order word list.
// The order is part of the segment format; append new counters at the end
// and bump snapVersion when changing it.
const numCounterWords = 15

func counterWords(s stats.Snapshot) []int64 {
	return []int64{
		s.EdgeProbEvals, s.Trials, s.PreAccepts, s.AppendixHits, s.Queries,
		s.Messages, s.BytesSent, s.Steps, s.Restarts, s.Terminations,
		s.Checkpoints, s.CheckpointBytes, s.CheckpointNanos, s.RestoreNanos,
		s.ExchangeNanos,
	}
}

func wordsToCounters(w []int64) stats.Snapshot {
	return stats.Snapshot{
		EdgeProbEvals: w[0], Trials: w[1], PreAccepts: w[2], AppendixHits: w[3],
		Queries: w[4], Messages: w[5], BytesSent: w[6], Steps: w[7],
		Restarts: w[8], Terminations: w[9], Checkpoints: w[10],
		CheckpointBytes: w[11], CheckpointNanos: w[12], RestoreNanos: w[13],
		ExchangeNanos: w[14],
	}
}

// decoder is a bounds-checked little-endian reader for result sections.
type decoder struct {
	buf  []byte
	what string
	err  error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: %s truncated", d.what)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func appendU32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}
