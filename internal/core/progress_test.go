package core

import (
	"sync"
	"testing"

	"knightking/internal/gen"
)

// spanLog is a test Observer recording every superstep span, the facts a
// progress beacon (kkrank's heartbeat) or an active-set series (Figure 5)
// reads.
type spanLog struct {
	mu    sync.Mutex
	spans []SuperstepSpan
}

func (l *spanLog) OnSuperstep(span SuperstepSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, span)
	l.mu.Unlock()
}

// TestOnProgressReportsBarriers: an observer sees one span per superstep
// per rank, each rank's in increasing superstep order, the final span
// reports zero live walkers, and observing does not change walk output.
func TestOnProgressReportsBarriers(t *testing.T) {
	g := gen.UniformDegree(40, 5, 3)
	base := Config{
		Graph:       g,
		Algorithm:   staticAlg(6),
		NumNodes:    2,
		Seed:        11,
		NumWalkers:  40,
		RecordPaths: true,
	}
	golden, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	log := &spanLog{}
	cfg := base
	cfg.Observer = log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(log.spans) != res.Iterations*base.NumNodes {
		t.Fatalf("observer saw %d spans, want %d (iterations %d × %d ranks)",
			len(log.spans), res.Iterations*base.NumNodes, res.Iterations, base.NumNodes)
	}
	perIter := make(map[int]int)  // superstep -> spans
	lastIter := make(map[int]int) // rank -> last superstep seen
	for _, sp := range log.spans {
		perIter[sp.Iteration]++
		if sp.Iteration <= lastIter[sp.Rank] {
			t.Errorf("rank %d reported superstep %d after %d", sp.Rank, sp.Iteration, lastIter[sp.Rank])
		}
		lastIter[sp.Rank] = sp.Iteration
		if sp.Iteration == res.Iterations && sp.GlobalWalkers != 0 {
			t.Errorf("final superstep %d reported %d live walkers, want 0", sp.Iteration, sp.GlobalWalkers)
		}
	}
	for it := 1; it <= res.Iterations; it++ {
		if perIter[it] != base.NumNodes {
			t.Errorf("superstep %d observed by %d ranks, want %d", it, perIter[it], base.NumNodes)
		}
	}
	assertSamePaths(t, golden.Paths, res.Paths)
}
