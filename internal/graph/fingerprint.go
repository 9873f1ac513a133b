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
	// recorded by older builds stay valid. The section covers every overlay
	// array, so two epochs differ whenever any replaced adjacency, weight,
	// or type differs.
	if g.over != nil {
		o := g.over
		mix(1)
		mix(uint64(len(o.verts)))
		for _, v := range o.verts {
			mix(uint64(v))
		}
		for _, off := range o.offs {
			mix(uint64(off))
		}
		mix(uint64(len(o.dst)))
		for _, d := range o.dst {
			mix(uint64(d))
		}
		if o.weight == nil {
			mix(0)
		} else {
			mix(1)
			for _, w := range o.weight {
				mix(uint64(math.Float32bits(w)))
			}
		}
		if o.etype == nil {
			mix(0)
		} else {
			mix(1)
			for _, t := range o.etype {
				mix(uint64(uint32(t)))
			}
		}
	}
	return h
}
