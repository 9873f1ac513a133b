package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, k := range []int{1, 2, 7} {
		hits := make([]atomic.Int32, k)
		Do(k, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("k=%d: f(%d) ran %d times", k, i, n)
			}
		}
	}
}

// TestDoRaisesLowestPanic pins the re-raise: panics on goroutines other
// than the caller's reach the caller, and when several calls panic the
// lowest index's value is the one raised, after every call has returned.
func TestDoRaisesLowestPanic(t *testing.T) {
	var done atomic.Int32
	got := func() (p any) {
		defer func() { p = recover() }()
		Do(4, func(i int) {
			defer done.Add(1)
			if i >= 2 {
				panic(i)
			}
		})
		return nil
	}()
	if got != 2 {
		t.Fatalf("raised %v, want the panic of index 2", got)
	}
	if n := done.Load(); n != 4 {
		t.Fatalf("%d of 4 calls had finished when the panic was raised", n)
	}
}

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ work, want int }{
		{0, 1}, {grain - 1, 1}, {2 * grain, 2}, {3*grain + 1, 3}, {100 * grain, 4},
	} {
		if got := Workers(c.work); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.work, got, c.want)
		}
	}
}
