package sampling

import (
	"math"
	"runtime"
	"testing"

	"knightking/internal/rng"
)

// TestAliasRowGolden pins BuildAliasRow's thresholds and aliases bit for
// bit to the alias construction that preceded rows (separate prob/alias
// arrays), so every biased walk keeps its exact draw sequence.
func TestAliasRowGolden(t *testing.T) {
	weights := []float32{3, 0, 1.5, 7, 0.25, 2, 0, 9.75, 1, 4.5, 0.125, 6}
	want := []struct {
		prob  uint64
		alias int32
	}{
		{0x3f9982470f7ccfc0, 3},
		{0x0000000000000000, 0},
		{0x3fe066091c3df33f, 3},
		{0x3fedb8f0833048e1, 7},
		{0x3fb5dd617afd4454, 7},
		{0x3fe5dd617afd4454, 7},
		{0x0000000000000000, 7},
		{0x3fd7afd4453d09fc, 9},
		{0x3fd5dd617afd4454, 7},
		{0x3fed0a0577585eba, 11},
		{0x3fa5dd617afd4454, 11},
		{0x3ff0000000000000, 11},
	}
	dst := make([]uint32, len(weights))
	for i := range dst {
		dst[i] = uint32(100 + i)
	}
	row := make([]AliasEntry, len(weights))
	if err := BuildAliasRow(row, weights, dst, new(AliasScratch)); err != nil {
		t.Fatal(err)
	}
	for i, e := range row {
		if math.Float64bits(e.Prob) != want[i].prob || e.Alias != want[i].alias || e.Dst != dst[i] {
			t.Fatalf("entry %d = {%#x, %d, %d}, want {%#x, %d, %d}",
				i, math.Float64bits(e.Prob), e.Alias, e.Dst, want[i].prob, want[i].alias, dst[i])
		}
	}
}

// TestBuildAliasRowReusesScratch: with a warm scratch, building a row
// allocates nothing — the set-up path builds one row per vertex.
func TestBuildAliasRowReusesScratch(t *testing.T) {
	weights := []float32{5, 1, 0, 2, 8, 3}
	row := make([]AliasEntry, len(weights))
	var scratch AliasScratch
	allocs := testing.AllocsPerRun(100, func() {
		if err := BuildAliasRow(row, weights, nil, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BuildAliasRow allocates %.1f per row with a warm scratch, want 0", allocs)
	}
	if err := BuildAliasRow(row[:2], weights, nil, &scratch); err == nil {
		t.Fatal("short row accepted")
	}
	if err := BuildAliasRow(row, weights, []uint32{1}, &scratch); err == nil {
		t.Fatal("short destination list accepted")
	}
}

// TestSharedUniformBounded: a huge n must not grow the process-lifetime
// cache to n pointers.
func TestSharedUniformBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u := SharedUniform(1 << 22)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Fatalf("SharedUniform(1<<22) allocated %d bytes, want under 1 KiB", got)
	}
	if u.N() != 1<<22 {
		t.Fatalf("N = %d", u.N())
	}
}

// fuzzWeights decodes two bytes per item: a selector and a value, giving
// zeros, scaled ordinary weights, and the invalid and extreme float32s.
func fuzzWeights(data []byte) []float32 {
	var w []float32
	for i := 0; i+2 <= len(data) && len(w) < 256; i += 2 {
		k, v := data[i], float32(data[i+1])
		switch k % 8 {
		case 0:
			w = append(w, 0)
		case 7:
			specials := []float32{float32(math.NaN()), -1, float32(math.Inf(1)), math.SmallestNonzeroFloat32, math.MaxFloat32, -0.0}
			w = append(w, specials[int(v)%len(specials)])
		default:
			w = append(w, v*float32(math.Pow(10, float64(k%8)-4)))
		}
	}
	return w
}

// FuzzAliasRow checks BuildAliasRow's exactness on arbitrary weights:
// each item's implied mass equals its normalized weight, zero-weight items
// are unreachable, aliases stay in range, destinations are carried, and
// the error cases are exactly NewAlias's.
func FuzzAliasRow(f *testing.F) {
	f.Add([]byte{1, 3, 2, 0, 0, 0, 3, 9})
	f.Add([]byte{6, 255, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{7, 0, 1, 4})
	f.Add([]byte{7, 3, 7, 4, 1, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		weights := fuzzWeights(data)
		dst := make([]uint32, len(weights))
		for i := range dst {
			dst[i] = uint32(7*i + 3)
		}
		row := make([]AliasEntry, len(weights))
		err := BuildAliasRow(row, weights, dst, new(AliasScratch))
		a, aerr := NewAlias(weights)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("BuildAliasRow err %v, NewAlias err %v", err, aerr)
		}
		if err != nil {
			return
		}
		n := len(row)
		total := 0.0
		for _, x := range weights {
			total += float64(x)
		}
		mass := make([]float64, n)
		for j, e := range row {
			if e.Alias < 0 || int(e.Alias) >= n {
				t.Fatalf("entry %d: alias %d out of [0,%d)", j, e.Alias, n)
			}
			if !(e.Prob >= 0 && e.Prob <= 1) {
				t.Fatalf("entry %d: prob %v outside [0,1]", j, e.Prob)
			}
			if e.Dst != dst[j] {
				t.Fatalf("entry %d: dst %d, want %d", j, e.Dst, dst[j])
			}
			if a.row[j].Prob != e.Prob || a.row[j].Alias != e.Alias {
				t.Fatalf("entry %d: row %+v, NewAlias %+v", j, e, a.row[j])
			}
			mass[j] += e.Prob
			mass[int(e.Alias)] += 1 - e.Prob
		}
		for i, m := range mass {
			want := float64(weights[i]) / total
			if math.Abs(m/float64(n)-want) > 1e-9 {
				t.Fatalf("item %d: implied mass %v, want %v (weights %v)", i, m/float64(n), want, weights)
			}
			if weights[i] == 0 && m != 0 {
				t.Fatalf("zero-weight item %d reachable with mass %v", i, m)
			}
		}
		r := rng.New(uint64(len(data)))
		for k := 0; k < 64; k++ {
			if s := a.Sample(r); weights[s] == 0 {
				t.Fatalf("zero-weight item %d sampled", s)
			}
		}
	})
}

// TestSplitDrawMatchesDrawAlias: AliasBucket then ResolveAlias, the split
// the step pipeline runs with a prefetch in between, returns the index
// DrawAlias returns on an identical stream and leaves the stream in the
// same state, on both the primary and the alias branch.
func TestSplitDrawMatchesDrawAlias(t *testing.T) {
	weights := []float32{3, 0, 1.5, 7, 0.25, 2, 0, 9.75, 1, 4.5, 0.125, 6}
	row := make([]AliasEntry, len(weights))
	if err := BuildAliasRow(row, weights, nil, new(AliasScratch)); err != nil {
		t.Fatal(err)
	}
	whole, split := rng.New(31), rng.New(31)
	var primary, alias int
	for i := 0; i < 10000; i++ {
		want := DrawAlias(row, whole)
		b := AliasBucket(row, split)
		got := ResolveAlias(row, b, split.Float64())
		if got != want {
			t.Fatalf("draw %d: split draw = %d, DrawAlias = %d", i, got, want)
		}
		if *split.State() != *whole.State() {
			t.Fatalf("draw %d: streams diverged", i)
		}
		if got == b {
			primary++
		} else {
			alias++
		}
	}
	if primary == 0 || alias == 0 {
		t.Fatalf("primary %d, alias %d draws: a branch went untested", primary, alias)
	}
}
