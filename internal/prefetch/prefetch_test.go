package prefetch

import "testing"

// TestT0LeavesMemoryAlone checks that a prefetch is only a hint: it
// returns, on the first and last element of a slice, without changing
// what a later load reads.
func TestT0LeavesMemoryAlone(t *testing.T) {
	buf := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	T0(&buf[0])
	T0(&buf[len(buf)-1])
	for i, v := range buf {
		if v != uint64(i+1) {
			t.Fatalf("buf[%d] = %d after prefetch, want %d", i, v, i+1)
		}
	}
}
