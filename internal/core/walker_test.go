package core

import (
	"testing"
	"testing/quick"
	"unsafe"

	"knightking/internal/graph"
	"knightking/internal/rng"
)

func TestWalkerCodecRoundTrip(t *testing.T) {
	w := &Walker{
		ID:       12345,
		Cur:      42,
		Prev:     41,
		Step:     17,
		Tag:      3,
		R:        *rng.New(99),
		Path:     []graph.VertexID{1, 2, 3, 42},
		sampling: true,
	}
	// Advance the RNG so its state is mid-stream.
	w.R.Uint64()
	w.R.Uint64()
	want := w.R // copy state
	buf := encodeWalker(nil, w)
	got, rest, err := decodeWalker(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got.ID != w.ID || got.Cur != w.Cur || got.Prev != w.Prev ||
		got.Step != w.Step || got.Tag != w.Tag || got.sampling != w.sampling {
		t.Fatalf("fields mangled: %+v vs %+v", got, w)
	}
	if len(got.Path) != 4 || got.Path[3] != 42 {
		t.Fatalf("path mangled: %v", got.Path)
	}
	// The decoded RNG must continue the exact same stream.
	for i := 0; i < 10; i++ {
		if got.R.Uint64() != want.Uint64() {
			t.Fatalf("RNG stream diverged after decode at draw %d", i)
		}
	}
}

func TestWalkerCodecAwaitingRoundTrip(t *testing.T) {
	w := &Walker{
		ID:            7,
		Cur:           3,
		Prev:          2,
		Step:          5,
		R:             *rng.New(123),
		Path:          []graph.VertexID{1, 2, 3},
		History:       []graph.VertexID{1, 2},
		sampling:      true,
		awaiting:      true,
		pendingEdge:   4,
		pendingY:      0.728515625,
		pendingTarget: 2,
		pendingArg:    9,
	}
	buf := encodeWalker(nil, w)
	got, rest, err := decodeWalker(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !got.awaiting || !got.sampling {
		t.Fatalf("awaiting/sampling flags lost: %+v", got)
	}
	if got.pendingEdge != w.pendingEdge || got.pendingY != w.pendingY ||
		got.pendingTarget != w.pendingTarget || got.pendingArg != w.pendingArg {
		t.Fatalf("pending dart mangled: %+v vs %+v", got, w)
	}
	if len(got.History) != 2 || got.History[1] != 2 {
		t.Fatalf("history mangled: %v", got.History)
	}
	// Awaiting records are larger by exactly the pending block; the flag
	// and length bytes stay canonical (decode→encode must reproduce buf).
	if again := encodeWalker(nil, got); string(again) != string(buf) {
		t.Fatal("awaiting record does not re-encode canonically")
	}
}

func TestWalkerCodecEmptyPath(t *testing.T) {
	w := &Walker{ID: 1, Cur: 2, R: *rng.New(1)}
	buf := encodeWalker(nil, w)
	got, rest, err := decodeWalker(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("err=%v rest=%d", err, len(rest))
	}
	if got.Path != nil {
		t.Fatalf("invented path %v", got.Path)
	}
}

func TestWalkerCodecBatch(t *testing.T) {
	var buf []byte
	for i := 0; i < 10; i++ {
		w := &Walker{ID: int64(i), Cur: graph.VertexID(i * 2), R: *rng.New(uint64(i))}
		if i%2 == 0 {
			w.Path = []graph.VertexID{graph.VertexID(i)}
		}
		buf = encodeWalker(buf, w)
	}
	for i := 0; i < 10; i++ {
		w, rest, err := decodeWalker(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if w.ID != int64(i) || w.Cur != graph.VertexID(i*2) {
			t.Fatalf("record %d mangled: %+v", i, w)
		}
		buf = rest
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestWalkerCodecTruncation(t *testing.T) {
	w := &Walker{ID: 1, Path: []graph.VertexID{1, 2, 3}}
	buf := encodeWalker(nil, w)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := decodeWalker(buf[:cut]); err == nil {
			// Cutting inside the path of a previous full record could
			// still parse if the fixed part is intact and pathLen bytes
			// remain; only flag cuts that silently succeed with wrong
			// data.
			got, rest, _ := decodeWalker(buf[:cut])
			if got != nil && len(rest) == 0 && len(got.Path) == len(w.Path) {
				t.Fatalf("truncated buffer (%d/%d bytes) decoded cleanly", cut, len(buf))
			}
		}
	}
}

func TestWalkerCodecQuick(t *testing.T) {
	f := func(id int64, cur, prev uint32, step, tag int32, seed uint64, pathLen uint8) bool {
		if step < 0 {
			step = -step
		}
		w := &Walker{ID: id, Cur: cur, Prev: prev, Step: step, Tag: tag, R: *rng.New(seed)}
		for i := 0; i < int(pathLen); i++ {
			w.Path = append(w.Path, graph.VertexID(i))
		}
		buf := encodeWalker(nil, w)
		got, rest, err := decodeWalker(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.ID != w.ID || got.Cur != w.Cur || got.Prev != w.Prev || got.Step != w.Step || got.Tag != w.Tag {
			return false
		}
		if len(got.Path) != len(w.Path) {
			return false
		}
		return got.R.Uint64() == w.R.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWalkerCodec(b *testing.B) {
	w := &Walker{ID: 1, Cur: 2, Prev: 3, Step: 4, Tag: 5, Origin: 2}
	w.Path = make([]graph.VertexID, 80)
	buf := make([]byte, 0, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeWalker(buf[:0], w)
		if _, _, err := decodeWalker(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWalkerSizeUnchanged pins the Walker at 144 bytes on 64-bit targets:
// the unencoded flags (sampling, awaiting, traced) share the padding
// before pendingEdge, so a walker-struct load in the step pipeline still
// spans the same cache lines.
func TestWalkerSizeUnchanged(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Walker{}); got != 144 {
		t.Fatalf("Walker is %d bytes, want 144", got)
	}
}
