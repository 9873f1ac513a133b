// Package hotdemo exercises the hotalloc analyzer: annotated hot
// functions, transitive reach, each allocation class, presized-append
// recognition, and waivers.
package hotdemo

import "fmt"

type walker struct {
	id   int64
	path []int32
}

type scratch struct {
	buf  []byte
	ws   []*walker
	hook func()
}

type sampler interface {
	Sample(int) int
}

type uniform struct{ n int }

// Sample is hot by annotation.
//
//kk:hotpath
func (u *uniform) Sample(x int) int { return x % u.n }

// step is the annotated hot root; helpers it calls become hot too.
//
//kk:hotpath
func step(s *scratch, w *walker, smp sampler) {
	s.buf = append(s.buf, byte(w.id)) // scratch field: fine
	advance(w, s)                     // transitively hot
	_ = smp.Sample(3)                 // dynamic call: not resolvable, not a finding
}

// advance is hot via step.
func advance(w *walker, s *scratch) {
	m := map[int]int{}            // want "map literal allocates"
	_ = m
	sl := []int{1, 2, 3}          // want "slice literal allocates"
	_ = sl
	p := &walker{id: 1}           // want "heap-escaping composite literal"
	_ = p
	b := make([]byte, 8)          // want "make allocates"
	_ = b
	q := new(walker)              // want "new allocates"
	_ = q
	var fresh []int32
	fresh = append(fresh, 1)      // want "append growth .* no presized origin"
	w.path = append(w.path, 9)    // field scratch: fine
	sized := make([]int32, 0, 16) // want "make allocates"
	sized = append(sized, 2)      // presized origin: fine
	_ = sized
	re := s.buf[:0]
	re = append(re, 1) // reslice origin: fine
	_ = re
}

// box is hot by annotation and demonstrates boxing findings.
//
//kk:hotpath
func box(w walker, s *scratch) interface{} {
	var i interface{}
	i = w        // want "interface boxing at assignment"
	sink(w)      // want "interface boxing at argument"
	sink(&w)     // pointer: no boxing
	sink(nil)    // nil: no boxing
	sink(i)      // already an interface: no boxing
	_ = i
	n := 0
	n++
	s.hook = func() { n++ } // want "capturing closure"
	s.hook = func() {}      // non-capturing: fine
	return w // want "interface boxing at return"
}

func sink(v interface{}) { _ = v }

// format is hot and calls fmt.
//
//kk:hotpath
func format(w *walker) {
	println(fmtWrap(w))
}

func fmtWrap(w *walker) string {
	return fmt.Sprint(w) // want "fmt call .* boxes its arguments"
}

// waived is hot with reasoned and unreasoned waivers.
//
//kk:hotpath
func waived() {
	b := make([]byte, 4) //kk:alloc-ok one-time setup slab, off the steady-state path
	_ = b
	//kk:alloc-ok
	c := make([]byte, 4) // want "waiver needs a reason"
	_ = c
	d := make([]byte, 4) //kk:alloc-ok a trailing waiver covers its own line only
	e := make([]byte, 4) // want "make allocates"
	_, _ = d, e
}

// cold is not annotated and not reachable from a root: anything goes.
func cold() {
	_ = map[int]int{}
	_ = []int{1}
	_ = make([]byte, 1)
}
