package graph

import "math"

// FNV-1a 64-bit parameters (FNV is stable across platforms and releases,
// unlike hash/maphash, which is deliberately per-process seeded).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns a stable 64-bit content hash of g: a pure function
// of the CSR arrays (offsets, destinations, weight bits, type values) and
// the partial-slice range, independent of how or when the graph was built.
// Two graphs have equal fingerprints exactly when a walk over them is
// indistinguishable, so the serving layer uses it as the identity check
// behind named graph registration: the same file loaded twice fingerprints
// identically, while any edge, weight, or type difference changes it.
//
// The hash is FNV-1a over a fixed little-endian encoding with section
// length prefixes, so data cannot alias across sections (an absent weight
// array is distinct from an empty or all-zero one).
func Fingerprint(g *Graph) uint64 {
	h := mix64(fnvOffset64, uint64(len(g.offsets)))
	for _, o := range g.offsets {
		h = mix64(h, uint64(o))
	}
	h = mix64(h, uint64(len(g.dst)))
	h = mixDsts(h, g.dst)
	if g.weight == nil {
		h = mix64(h, 0)
	} else {
		h = mix64(h, 1)
		h = mix64(h, uint64(len(g.weight)))
		h = mixWeights(h, g.weight)
	}
	if g.etype == nil {
		h = mix64(h, 0)
	} else {
		h = mix64(h, 1)
		h = mix64(h, uint64(len(g.etype)))
		h = mixTypes(h, g.etype)
	}
	if g.partial {
		h = mix64(h, 1)
		h = mix64(h, uint64(g.ownedLo))
		h = mix64(h, uint64(g.ownedHi))
	} else {
		h = mix64(h, 0)
	}
	// Overlay section, appended only when present: a delta-free graph keeps
	// the exact hash it had before overlays existed, so registry identities
	// recorded by older builds stay valid. The section covers every
	// overlaid vertex with its whole length-prefixed segment, so two epochs
	// differ whenever any replaced adjacency, weight, or type differs.
	if o := g.over; o != nil {
		h = mix64(h, 1)
		h = mix64(h, uint64(o.verts))
		o.overlaid(func(v VertexID, s *Segment) {
			h = mix64(h, uint64(v))
			h = mix64(h, uint64(len(s.Dst)))
			h = mixDsts(h, s.Dst)
			h = mixWeights(h, s.Weight)
			h = mixTypes(h, s.Type)
		})
	}
	return h
}

// Every value enters the hash as eight little-endian bytes, one FNV-1a
// round (xor, multiply) each. A 32-bit value's four high bytes are zero,
// and xor with zero leaves h as it is, so their four rounds are four
// multiplications by the prime: one multiplication by fnvPrime64x4, the
// prime's fourth power mod 2^64. The hash is bit for bit the byte-wise
// one, in 5 multiplications per 32-bit value instead of 8.
const fnvPrime64x4 = (fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64) & (1<<64 - 1)

func mix64(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	h = (h ^ v>>24&0xff) * fnvPrime64
	h = (h ^ v>>32&0xff) * fnvPrime64
	h = (h ^ v>>40&0xff) * fnvPrime64
	h = (h ^ v>>48&0xff) * fnvPrime64
	return (h ^ v>>56) * fnvPrime64
}

func mix32(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>24)) * fnvPrime64
	return h * fnvPrime64x4
}

// The section loops are typed, one per array element type, so the
// compiler inlines mix32 into each and no value costs a call.

func mixDsts(h uint64, s []VertexID) uint64 {
	for _, v := range s {
		h = mix32(h, v)
	}
	return h
}

func mixWeights(h uint64, s []float32) uint64 {
	for _, w := range s {
		h = mix32(h, math.Float32bits(w))
	}
	return h
}

func mixTypes(h uint64, s []int32) uint64 {
	for _, t := range s {
		h = mix32(h, uint32(t))
	}
	return h
}
