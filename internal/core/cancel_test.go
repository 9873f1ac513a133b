package core

import (
	"errors"
	"sync"
	"testing"

	"knightking/internal/gen"
)

// cancelAtObserver closes a cancel channel the first time any rank reports
// reaching the given superstep. Driving cancellation from the engine's own
// span stream keeps the test deterministic: no sleeps, no wall clock.
type cancelAtObserver struct {
	at     int
	cancel chan struct{}
	once   sync.Once
}

func (o *cancelAtObserver) OnSuperstep(span SuperstepSpan) {
	if span.Iteration >= o.at {
		o.once.Do(func() { close(o.cancel) })
	}
}

func TestCancelPreClosedChannelAbortsFirstBarrier(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	_, err := Run(Config{
		Graph:     gen.UniformDegree(100, 6, 3),
		Algorithm: staticAlg(100000),
		NumNodes:  3,
		Seed:      1,
		Cancel:    cancel,
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestCancelMidRunStaticWalk(t *testing.T) {
	obs := &cancelAtObserver{at: 4, cancel: make(chan struct{})}
	_, err := Run(Config{
		Graph:     gen.UniformDegree(200, 6, 3),
		Algorithm: staticAlg(100000), // would run 100000 supersteps uncancelled
		NumNodes:  4,
		Seed:      7,
		Cancel:    obs.cancel,
		Observer:  obs,
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestCancelMidRunSecondOrderWalk(t *testing.T) {
	// The two-round query machinery must also stop at the count barrier:
	// parked walkers and in-flight queries are simply abandoned.
	obs := &cancelAtObserver{at: 3, cancel: make(chan struct{})}
	_, err := Run(Config{
		Graph:     gen.UniformDegree(120, 8, 33),
		Algorithm: parityAlg(5000),
		NumNodes:  3,
		Seed:      77,
		Cancel:    obs.cancel,
		Observer:  obs,
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestCancelChannelLeftOpenDoesNotPerturbWalk(t *testing.T) {
	g := gen.UniformDegree(100, 6, 3)
	run := func(cancel <-chan struct{}) *Result {
		res, err := Run(Config{
			Graph:       g,
			Algorithm:   staticAlg(20),
			NumNodes:    2,
			Seed:        42,
			RecordPaths: true,
			Cancel:      cancel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(nil)
	got := run(make(chan struct{}))
	assertSamePaths(t, ref.Paths, got.Paths)
	// Nanos counters are wall-clock and may differ; everything else is
	// pinned by the seed.
	a, b := ref.Counters, got.Counters
	a.ExchangeNanos, b.ExchangeNanos = 0, 0
	if a != b {
		t.Fatalf("counters diverged with an armed cancel channel:\n%+v\n%+v", a, b)
	}
}

func TestCancelRaceWithCompletionIsCleanEitherWay(t *testing.T) {
	// Closing the channel on the very superstep the walk drains must yield
	// either a clean completion or a clean cancellation — never a hang or a
	// partial-state error. Length 3 walks finish at superstep 4's barrier,
	// where the observer also fires.
	obs := &cancelAtObserver{at: 4, cancel: make(chan struct{})}
	res, err := Run(Config{
		Graph:     gen.UniformDegree(50, 4, 9),
		Algorithm: staticAlg(3),
		NumNodes:  2,
		Seed:      5,
		Cancel:    obs.cancel,
		Observer:  obs,
	})
	if err != nil && !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	if err == nil && res.Counters.Terminations != 50 {
		t.Fatalf("completed run lost walkers: %d terminations", res.Counters.Terminations)
	}
}
