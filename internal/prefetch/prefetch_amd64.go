package prefetch

import "unsafe"

// t0 is one PREFETCHT0 of the line holding p (prefetch_amd64.s).
//
//go:noescape
func t0(p unsafe.Pointer)
