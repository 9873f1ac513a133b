//go:build !amd64

package prefetch

import "unsafe"

// t0 is a no-op on architectures without a prefetch stub.
func t0(unsafe.Pointer) {}
