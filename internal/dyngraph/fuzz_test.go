package dyngraph

import (
	"testing"

	"knightking/internal/gen"
	"knightking/internal/graph"
)

// FuzzApplyDeltas drives random insert/delete batches through Apply and
// checks the overlay view against the rebuilt-from-scratch CSR oracle:
// Apply must never panic, must reject exactly what the naive model
// rejects, and on success the epoch's compacted view must fingerprint
// identically to the rebuilt graph while staying structurally valid, the
// view's MaxWeight must be the rebuilt graph's exact maximum at every
// vertex, and every prebuilt alias row must equal the row built from the
// rebuilt graph, its Dst sequence the compacted view's adjacency (a stale
// Dst would walk a deleted edge, which a degree check cannot see). Every
// published epoch is kept with its rebuilt graph and re-checked after each
// later Apply: successive epochs share copy-on-write pages, so a write
// through a shared page would show up as an earlier epoch changing.
func FuzzApplyDeltas(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x40})
	f.Add([]byte{0x81, 0x02, 0x01, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00})
	f.Add([]byte{0x81, 0x02, 0x13, 0x00}) // deletes vertex 2's maximum-weight edge
	// Three one-delta batches on vertex 1: each epoch clones the page its
	// predecessor published, which must stay as it was.
	f.Add([]byte{0x80, 0x01, 0x05, 0x04, 0x80, 0x01, 0x06, 0x08, 0x81, 0x01, 0x05, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := gen.WithUniformWeights(gen.UniformDegree(24, 4, 127), 1, 5, 128)
		d, err := New(base, Options{CompactAfter: 32})
		if err != nil {
			t.Fatal(err)
		}
		m := modelOf(base)
		type published struct {
			ep      *Epoch
			rebuilt *graph.Graph
		}
		var kept []published

		// Decode data into batches: each 4-byte group is one delta
		// (op/batch-break, src, dst, weight quarter-steps); a high op bit
		// ends the current batch.
		var batch []Delta
		flush := func() {
			if len(batch) == 0 {
				return
			}
			ok := m.apply(batch)
			ep, err := d.Apply(batch)
			if ok != (err == nil) {
				t.Fatalf("model says valid=%v, Apply says err=%v (batch %+v)", ok, err, batch)
			}
			if err == nil {
				view := ep.View()
				if verr := view.Validate(); verr != nil {
					t.Fatalf("published view invalid: %v", verr)
				}
				rebuilt := m.rebuild()
				if graph.Fingerprint(view.Compacted()) != graph.Fingerprint(rebuilt) {
					t.Fatalf("overlay view diverged from rebuilt CSR after batch %+v", batch)
				}
				for v := 0; v < rebuilt.NumVertices(); v++ {
					id := graph.VertexID(v)
					if got, want := view.MaxWeight(id), rebuilt.MaxWeight(id); got != want {
						t.Fatalf("MaxWeight(%d) = %v, rebuilt CSR says %v, after batch %+v", v, got, want, batch)
					}
				}
				assertTablesMatch(t, ep, rebuilt)
				assertRowDsts(t, ep, view.Compacted(), batch)
				for _, old := range kept {
					if graph.Fingerprint(old.ep.View().Compacted()) != graph.Fingerprint(old.rebuilt) {
						t.Fatalf("epoch %d changed content after batch %+v", old.ep.Seq(), batch)
					}
					assertRowDsts(t, old.ep, old.rebuilt, batch)
				}
				kept = append(kept, published{ep, rebuilt})
			} else {
				// Failed batches must keep the model in sync: rebuild the
				// model from the current epoch.
				m = modelOf(d.Epoch().View())
			}
			batch = nil
		}
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			op, src, dst, wq := data[i], data[i+1], data[i+2], data[i+3]
			del := Delta{
				Src:    graph.VertexID(src % 26), // occasionally out of range
				Dst:    graph.VertexID(dst % 26),
				Weight: float32(wq%20) * 0.25, // occasionally zero (invalid)
			}
			if op&1 != 0 {
				del.Op = OpDelete
				del.Weight = 0
			}
			batch = append(batch, del)
			if op&0x80 != 0 {
				flush()
			}
		}
		flush()

		// Final compaction must land exactly on the rebuilt content.
		ep, err := d.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if graph.Fingerprint(ep.View()) != graph.Fingerprint(m.rebuild()) {
			t.Fatal("compacted CSR diverged from rebuilt CSR")
		}
	})
}

// assertRowDsts checks that every alias row of ep walks to exactly the
// adjacency of want, edge by edge.
func assertRowDsts(t *testing.T, ep *Epoch, want *graph.Graph, batch []Delta) {
	t.Helper()
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		row, adj := ep.AliasRow(id), want.Neighbors(id)
		if len(row) != len(adj) {
			t.Fatalf("epoch %d vertex %d: row over %d edges, degree %d", ep.Seq(), v, len(row), len(adj))
		}
		for i, e := range row {
			if e.Dst != adj[i] {
				t.Fatalf("epoch %d vertex %d edge %d: row walks to %d, adjacency to %d, after batch %+v", ep.Seq(), v, i, e.Dst, adj[i], batch)
			}
		}
	}
}
