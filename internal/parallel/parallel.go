// Package parallel runs a fixed number of calls at once and joins them,
// for the set-up passes of graph, dyngraph and core that split a vertex
// range across cores.
package parallel

import (
	"runtime"
	"sync"
)

// Do runs f(0), ..., f(k-1) at once (k >= 1), f(0) on the calling
// goroutine, and returns when all have. A panic on any of them is raised
// again on the caller once every one has finished (the lowest index's, if
// several panic), so a panic reaches the caller's recover from whichever
// goroutine it happened on.
func Do(k int, f func(i int)) {
	panics := make([]any, k)
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			f(i)
		}(i)
	}
	func() {
		defer func() { panics[0] = recover() }()
		f(0)
	}()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// grain is the least work, in edges or values, worth a goroutine of its
// own: below it the spawn and the join cost more than the split saves.
const grain = 1 << 14

// Workers returns how many calls Do should split work units across: one
// per usable core, as many as the work fills at grain units each, and at
// least one.
func Workers(work int) int {
	return max(1, min(runtime.GOMAXPROCS(0), work/grain))
}
