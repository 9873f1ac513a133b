// Package prefetch issues hardware prefetch hints. Go exposes no prefetch
// intrinsic outside the runtime, and an ordinary load does not help: the
// loading goroutine waits on it. T0 asks the cache hierarchy for a line
// and returns at once, so the step pipeline can request the random alias
// entry of one walker while it draws for the next.
//
// On amd64 T0 is one PREFETCHT0 instruction (prefetch_amd64.s); every
// other GOARCH gets a no-op, so callers never branch on the architecture.
package prefetch

import "unsafe"

// T0 hints that the cache line holding *p will be read soon, into every
// cache level. It never faults and never changes what a later load reads.
func T0[E any](p *E) { t0(unsafe.Pointer(p)) }
