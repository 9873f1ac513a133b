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
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= fnvPrime64
		}
	}

	mix(uint64(len(g.offsets)))
	for _, o := range g.offsets {
		mix(uint64(o))
	}
	mix(uint64(len(g.dst)))
	for _, d := range g.dst {
		mix(uint64(d))
	}
	if g.weight == nil {
		mix(0)
	} else {
		mix(1)
		mix(uint64(len(g.weight)))
		for _, w := range g.weight {
			mix(uint64(math.Float32bits(w)))
		}
	}
	if g.etype == nil {
		mix(0)
	} else {
		mix(1)
		mix(uint64(len(g.etype)))
		for _, t := range g.etype {
			mix(uint64(uint32(t)))
		}
	}
	if g.partial {
		mix(1)
		mix(uint64(g.ownedLo))
		mix(uint64(g.ownedHi))
	} else {
		mix(0)
	}
	// Overlay section, appended only when present: a delta-free graph keeps
	// the exact hash it had before overlays existed, so registry identities
	// recorded by older builds stay valid. The section covers every
	// overlaid vertex with its whole length-prefixed segment, so two epochs
	// differ whenever any replaced adjacency, weight, or type differs.
	if o := g.over; o != nil {
		mix(1)
		mix(uint64(o.verts))
		o.overlaid(func(v VertexID, s *Segment) {
			mix(uint64(v))
			mix(uint64(len(s.Dst)))
			for _, d := range s.Dst {
				mix(uint64(d))
			}
			for _, w := range s.Weight {
				mix(uint64(math.Float32bits(w)))
			}
			for _, t := range s.Type {
				mix(uint64(uint32(t)))
			}
		})
	}
	return h
}
