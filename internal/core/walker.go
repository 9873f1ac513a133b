// Package core implements the KnightKing engine: a walker-centric,
// bulk-synchronous distributed random walk executor built around rejection
// sampling (paper §4–6). Users describe an algorithm with an Algorithm
// value (the Go rendering of the paper's edgeStaticComp / edgeDynamicComp /
// dynamicCompUpperBound / dynamicCompLowerBound / postStateQuery API,
// Figure 4) and Run executes it over a simulated multi-node cluster.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"knightking/internal/graph"
	"knightking/internal/rng"
)

// Walker is the unit of computation: an independent agent that repeatedly
// samples an out-edge of its current vertex and moves. Walkers migrate
// between nodes with their full state, including their private RNG stream,
// which makes every walk deterministic in (seed, walker ID) regardless of
// cluster size or scheduling.
type Walker struct {
	// ID is the dense walker index in [0, NumWalkers).
	ID int64
	// Cur is the current residing vertex.
	Cur graph.VertexID
	// Prev is the previously visited vertex (last(w)); valid when Step > 0.
	Prev graph.VertexID
	// Step counts moves taken so far.
	Step int32
	// Tag is algorithm-defined walker state (e.g. the meta-path scheme
	// index assigned to this walker).
	Tag int32
	// Origin is the walker's start vertex, the target of restart
	// teleports (random walk with restart).
	Origin graph.VertexID
	// R is the walker's private random stream.
	R rng.Rand

	// Path holds the visited vertices (including the start) when path
	// recording is enabled.
	Path []graph.VertexID

	// History holds the walker's most recent previously-visited vertices
	// (most recent last, excluding Cur), maintained by the engine when the
	// algorithm sets HistorySize > 0 and carried across migrations.
	History []graph.VertexID

	// sampling marks a walker that has passed this step's termination
	// checks but not yet moved (mid-step across supersteps, possible only
	// for higher-order walks awaiting or retrying after remote queries).
	sampling bool
	// awaiting marks a walker blocked on a remote state query.
	awaiting bool
	// traced marks a walker whose journey this rank's Tracer samples. It
	// is decided once, where the walker is seeded or arrives (setTraced),
	// so a walker event tests one flag instead of asking the Tracer. It
	// sits in padding (the Walker does not grow) and stays out of the
	// codec: every traced rank decides it again from the walker ID.
	traced bool
	// pendingEdge / pendingY hold the dart under evaluation while a remote
	// query is outstanding.
	pendingEdge int32
	pendingY    float64
	// pendingTarget / pendingArg record the outstanding query itself so a
	// checkpointed walker can re-issue it verbatim on resume.
	pendingTarget graph.VertexID
	pendingArg    uint64
}

// rngWords gives codec access to the walker RNG state.
func rngWords(r *rng.Rand) *[4]uint64 { return r.State() }

const walkerFixedLen = 8 + 4 + 4 + 4 + 4 + 4 + 32 + 1 + 1 + 2 // ID,Cur,Prev,Step,Tag,Origin,R,flags,histLen,pathLen

// pendingLen is the extra record length for awaiting walkers (checkpoint
// segments only): pendingEdge, pendingY, pendingTarget, pendingArg.
const pendingLen = 4 + 8 + 4 + 8

// InHistory reports whether v is among the walker's tracked recent
// vertices (requires Algorithm.HistorySize > 0 to be maintained).
func (w *Walker) InHistory(v graph.VertexID) bool {
	for _, h := range w.History {
		if h == v {
			return true
		}
	}
	return false
}

// walkerLen is the length of w's record as encodeWalker writes it.
func walkerLen(w *Walker) int {
	n := walkerFixedLen + 4*len(w.History) + 4*len(w.Path)
	if w.awaiting {
		n += pendingLen
	}
	return n
}

// encodeWalker appends w's wire form to buf and returns the extended slice.
// A walker never migrates while awaiting a query, so migration records
// carry no pending-dart bytes; checkpoint segments reuse the same codec and
// do encode awaiting walkers, whose records grow by pendingLen bytes
// (flag bit 1) so the dart and its outstanding query survive a resume.
//
//kk:hotpath
func encodeWalker(buf []byte, w *Walker) []byte {
	var tmp [walkerFixedLen]byte
	binary.LittleEndian.PutUint64(tmp[0:], uint64(w.ID))
	binary.LittleEndian.PutUint32(tmp[8:], w.Cur)
	binary.LittleEndian.PutUint32(tmp[12:], w.Prev)
	binary.LittleEndian.PutUint32(tmp[16:], uint32(w.Step))
	binary.LittleEndian.PutUint32(tmp[20:], uint32(w.Tag))
	binary.LittleEndian.PutUint32(tmp[24:], w.Origin)
	st := rngWords(&w.R)
	for i, word := range st {
		binary.LittleEndian.PutUint64(tmp[28+8*i:], word)
	}
	var flags byte
	if w.sampling {
		flags |= 1
	}
	if w.awaiting {
		flags |= 2
	}
	tmp[60] = flags
	if len(w.History) > 255 {
		panic(fmt.Sprintf("core: history length %d exceeds wire limit", len(w.History))) //kk:alloc-ok panic path: a wire-limit overflow aborts the run, never steady state
	}
	tmp[61] = byte(len(w.History))
	if len(w.Path) > 1<<16-1 {
		panic(fmt.Sprintf("core: path length %d exceeds wire limit", len(w.Path))) //kk:alloc-ok panic path: a wire-limit overflow aborts the run, never steady state
	}
	binary.LittleEndian.PutUint16(tmp[62:], uint16(len(w.Path)))
	buf = append(buf, tmp[:]...)
	if w.awaiting {
		var pb [pendingLen]byte
		binary.LittleEndian.PutUint32(pb[0:], uint32(w.pendingEdge))
		binary.LittleEndian.PutUint64(pb[4:], math.Float64bits(w.pendingY))
		binary.LittleEndian.PutUint32(pb[12:], w.pendingTarget)
		binary.LittleEndian.PutUint64(pb[16:], w.pendingArg)
		buf = append(buf, pb[:]...)
	}
	for _, v := range w.History {
		var vb [4]byte
		binary.LittleEndian.PutUint32(vb[:], v)
		buf = append(buf, vb[:]...)
	}
	for _, v := range w.Path {
		var vb [4]byte
		binary.LittleEndian.PutUint32(vb[:], v)
		buf = append(buf, vb[:]...)
	}
	return buf
}

// decodeWalker reads one walker from buf, returning the walker and the
// remaining bytes.
func decodeWalker(buf []byte) (*Walker, []byte, error) {
	w := &Walker{}
	rest, err := decodeWalkerInto(w, buf)
	if err != nil {
		return nil, nil, err
	}
	return w, rest, nil
}

// decodeWalkerInto reads one walker from buf into w, overwriting every
// field and reusing w's History/Path capacity where possible — the
// zero-allocation decode path for pooled walkers on the migration hot
// path. On error w is left partially written; callers recycle it anyway.
//
//kk:hotpath
func decodeWalkerInto(w *Walker, buf []byte) ([]byte, error) {
	if len(buf) < walkerFixedLen {
		return nil, fmt.Errorf("core: truncated walker record (%d bytes)", len(buf)) //kk:alloc-ok error path: a corrupt walker record aborts the run, never steady state
	}
	w.ID = int64(binary.LittleEndian.Uint64(buf[0:]))
	w.Cur = binary.LittleEndian.Uint32(buf[8:])
	w.Prev = binary.LittleEndian.Uint32(buf[12:])
	w.Step = int32(binary.LittleEndian.Uint32(buf[16:]))
	w.Tag = int32(binary.LittleEndian.Uint32(buf[20:]))
	w.Origin = binary.LittleEndian.Uint32(buf[24:])
	st := rngWords(&w.R)
	for i := range st {
		st[i] = binary.LittleEndian.Uint64(buf[28+8*i:])
	}
	if buf[60]&^byte(3) != 0 {
		return nil, fmt.Errorf("core: unknown walker flag bits %#x", buf[60]) //kk:alloc-ok error path: a corrupt walker record aborts the run, never steady state
	}
	w.sampling = buf[60]&1 != 0
	w.awaiting = buf[60]&2 != 0
	w.traced = false
	histLen := int(buf[61])
	pathLen := int(binary.LittleEndian.Uint16(buf[62:]))
	buf = buf[walkerFixedLen:]
	if w.awaiting {
		if len(buf) < pendingLen {
			return nil, fmt.Errorf("core: truncated walker pending dart") //kk:alloc-ok error path: a corrupt walker record aborts the run, never steady state
		}
		w.pendingEdge = int32(binary.LittleEndian.Uint32(buf[0:]))
		w.pendingY = math.Float64frombits(binary.LittleEndian.Uint64(buf[4:]))
		w.pendingTarget = binary.LittleEndian.Uint32(buf[12:])
		w.pendingArg = binary.LittleEndian.Uint64(buf[16:])
		buf = buf[pendingLen:]
	} else {
		w.pendingEdge, w.pendingY, w.pendingTarget, w.pendingArg = 0, 0, 0, 0
	}
	if histLen > 0 {
		if len(buf) < 4*histLen {
			return nil, fmt.Errorf("core: truncated walker history") //kk:alloc-ok error path: a corrupt walker record aborts the run, never steady state
		}
		if cap(w.History) >= histLen {
			w.History = w.History[:histLen]
		} else {
			w.History = make([]graph.VertexID, histLen) //kk:alloc-ok amortized: pooled walker history grows to working size, then is reused
		}
		for i := 0; i < histLen; i++ {
			w.History[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
		buf = buf[4*histLen:]
	} else {
		w.History = w.History[:0]
	}
	if pathLen > 0 {
		if len(buf) < 4*pathLen {
			return nil, fmt.Errorf("core: truncated walker path") //kk:alloc-ok error path: a corrupt walker record aborts the run, never steady state
		}
		if cap(w.Path) >= pathLen {
			w.Path = w.Path[:pathLen]
		} else {
			w.Path = make([]graph.VertexID, 0, pathLen+16)[:pathLen] //kk:alloc-ok amortized: pooled walker path grows to working size, then is reused
		}
		for i := 0; i < pathLen; i++ {
			w.Path[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
		buf = buf[4*pathLen:]
	} else {
		// Path must be nil, not merely empty: the engine records paths
		// exactly when the walker carries a non-nil Path.
		w.Path = nil
	}
	return buf, nil
}
