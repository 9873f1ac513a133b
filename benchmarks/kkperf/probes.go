package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"knightking/internal/dyngraph"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/rng"
	"knightking/internal/sampling"
	"knightking/internal/transport"
)

// The probes are short timed loops over one layer's public functions, the
// same in every traced run whatever the workload. Each runs inside a span.

var probeSink int // keeps the draw loops from being optimised away

func probeWeights(n int, seed uint64) []float32 {
	r := rng.New(seed)
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(1 + 15*r.Float64())
	}
	return w
}

// samplingProbes times Alias.Sample and ITS.Sample on fresh tables of 16
// and 4096 items, and NewAlias per edge.
func samplingProbes(rec *recorder, parent int, seed uint64, m map[string]float64) error {
	return rec.do(parent, "probe", "sampling", "draw and build loops", func(int) error {
		const draws = 2_000_000
		for _, d := range []int{16, 4096} {
			w := probeWeights(d, seed+uint64(d))
			a, err := sampling.NewAlias(w)
			if err != nil {
				return err
			}
			s, err := sampling.NewITS(w)
			if err != nil {
				return err
			}
			for _, t := range []struct {
				name string
				smp  sampling.StaticSampler
			}{{"alias", a}, {"its", s}} {
				r := rng.New(seed)
				start := time.Now()
				for i := 0; i < draws; i++ {
					probeSink += t.smp.Sample(r)
				}
				m[fmt.Sprintf("sampling.%s_draw_ns_d%d", t.name, d)] = float64(time.Since(start).Nanoseconds()) / draws
			}
		}
		const tables, degree = 4000, 250
		w := probeWeights(degree, seed)
		start := time.Now()
		for i := 0; i < tables; i++ {
			a, err := sampling.NewAlias(w)
			if err != nil {
				return err
			}
			probeSink += a.N()
		}
		m["sampling.alias_build_ns_per_edge"] = float64(time.Since(start).Nanoseconds()) / (tables * degree)
		return nil
	})
}

// exchangeLoop runs `rounds` collective rounds on a 2-endpoint group, each
// rank sending perRound messages of size bytes to the other, and returns
// the wall time.
func exchangeLoop(eps []transport.Endpoint, rounds, perRound, size int) (time.Duration, error) {
	payload := make([]byte, size)
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < perRound; k++ {
					ep.Send(1-i, 1, payload)
				}
				if _, err := ep.Exchange(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// transportProbes times Send+Exchange on the in-process group and on a
// loopback TCP mesh: many small messages, and two 64 KiB ones per round.
func transportProbes(rec *recorder, parent int, m map[string]float64) error {
	return rec.do(parent, "probe", "transport", "Send+Exchange loops", func(span int) error {
		const smallRounds, smallPer, smallSize = 400, 256, 64
		const bigRounds, bigPer, bigSize = 400, 2, 64 << 10
		inproc := transport.NewInProcGroup(ranks)
		d, err := exchangeLoop(inproc, smallRounds, smallPer, smallSize)
		closeEndpoints(inproc)
		if err != nil {
			return err
		}
		m["transport.inproc_exchange_ns_per_msg"] = float64(d.Nanoseconds()) / (smallRounds * smallPer * ranks)

		tcp, err := dialSpan(rec, span, "probe")
		if err != nil {
			return err
		}
		defer closeEndpoints(tcp)
		if d, err = exchangeLoop(tcp, smallRounds, smallPer, smallSize); err != nil {
			return err
		}
		m["transport.tcp_exchange_ns_per_msg_small"] = float64(d.Nanoseconds()) / (smallRounds * smallPer * ranks)
		if d, err = exchangeLoop(tcp, bigRounds, bigPer, bigSize); err != nil {
			return err
		}
		m["transport.tcp_exchange_ns_per_msg_64k"] = float64(d.Nanoseconds()) / (bigRounds * bigPer * ranks)
		m["transport.tcp_mb_per_s"] = float64(bigRounds*bigPer*ranks*bigSize) / 1e6 / d.Seconds()
		return nil
	})
}

// dyngraphProbes times DynGraph.Apply per delta, spread uniformly and
// aimed at one degree-2000 hub (whose sampler table every batch must
// rebuild), and one Compact.
func dyngraphProbes(rec *recorder, parent int, seed uint64, m map[string]float64) error {
	return rec.do(parent, "probe", "dyngraph", "Apply and Compact", func(int) error {
		const n, hubDegree, batch, batches = 20000, 2000, 256, 32
		base := gen.WithUniformWeights(gen.Hotspot(n, 8, 1, hubDegree, seed), 1, 5, seed+1)
		hub := graph.VertexID(n) // Hotspot appends its hot vertices
		d, err := dyngraph.New(base, dyngraph.Options{})
		if err != nil {
			return err
		}
		r := rng.New(seed + 2)
		apply := func(src func() graph.VertexID) (float64, error) {
			start := time.Now()
			for b := 0; b < batches; b++ {
				deltas := make([]dyngraph.Delta, batch)
				for i := range deltas {
					deltas[i] = dyngraph.Delta{Src: src(), Dst: graph.VertexID(r.Intn(n)), Weight: float32(1 + 4*r.Float64())}
				}
				if _, err := d.Apply(deltas); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(start).Nanoseconds()) / (batches * batch), nil
		}
		if m["dyngraph.apply_ns_per_delta_uniform"], err = apply(func() graph.VertexID { return graph.VertexID(r.Intn(n)) }); err != nil {
			return err
		}
		if m["dyngraph.apply_ns_per_delta_hub"], err = apply(func() graph.VertexID { return hub }); err != nil {
			return err
		}
		start := time.Now()
		if _, err := d.Compact(); err != nil {
			return err
		}
		m["dyngraph.compact_ms"] = time.Since(start).Seconds() * 1e3
		return nil
	})
}

// graphProbes times the binary round trip and the fingerprint of the
// workload's own graph. path is left behind for the caller to use.
func graphProbes(rec *recorder, parent int, g *graph.Graph, path string, m map[string]float64) error {
	var size int64
	err := rec.do(parent, "probe", "graph", "WriteBinary", func(int) (err error) {
		start := time.Now()
		size, err = writeBinaryGraph(path, g)
		m["graph.write_binary_mb_per_s"] = float64(size) / 1e6 / time.Since(start).Seconds()
		return err
	})
	if err != nil {
		return err
	}
	err = rec.do(parent, "probe", "graph", "ReadBinary", func(int) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close() // only read
		start := time.Now()
		back, err := graph.ReadBinary(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return err
		}
		m["graph.load_binary_mb_per_s"] = float64(size) / 1e6 / time.Since(start).Seconds()
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			return fmt.Errorf("binary round trip changed the graph: %d/%d vertices, %d/%d edges",
				back.NumVertices(), g.NumVertices(), back.NumEdges(), g.NumEdges())
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rec.do(parent, "probe", "graph", "Fingerprint", func(int) error {
		start := time.Now()
		probeSink += int(graph.Fingerprint(g) & 1)
		m["graph.fingerprint_ms"] = time.Since(start).Seconds() * 1e3
		return nil
	})
}
