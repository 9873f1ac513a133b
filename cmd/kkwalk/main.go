// Command kkwalk runs one of the five built-in random walk algorithms on a
// graph file (text or binary edge list) over the simulated cluster, and
// optionally dumps the walk sequences.
//
// Usage:
//
//	kkwalk -graph g.txt -alg deepwalk -length 80
//	kkwalk -graph g.txt -alg ppr -pt 0.0125
//	kkwalk -graph g.bin -binary -alg node2vec -p 2 -q 0.5 -nodes 8 -walkers 100000
//	kkwalk -graph g.txt -alg metapath -schemes "0,1;2,0,1" -length 80
//	kkwalk -graph g.txt -alg node2vec -dump walks.txt
//
// Long jobs can snapshot their state every few supersteps and pick up
// after a crash:
//
//	kkwalk -graph g.txt -alg node2vec -checkpoint-dir ckpt -checkpoint-every 16
//	kkwalk -graph g.txt -alg node2vec -checkpoint-dir ckpt -resume
//
// Telemetry: -admin-addr serves live /metrics, /statusz, /trace, and
// /debug/pprof while the run is in flight; -spans streams per-superstep
// phase traces as JSONL; -trace records a causal trace (superstep/phase
// spans, exchange peer attribution, sampled walker journeys) and writes it
// as Perfetto JSON — open the file at https://ui.perfetto.dev; -json
// replaces the human summary with exactly one machine-parseable report
// line on stdout:
//
//	kkwalk -graph g.txt -alg node2vec -admin-addr localhost:6060 -spans spans.jsonl
//	kkwalk -graph g.txt -alg node2vec -trace trace.json -trace-sample 64
//	kkwalk -graph g.txt -alg node2vec -quiet -json | jq .edges_per_step
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"knightking/internal/alg"
	"knightking/internal/checkpoint"
	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/obs"
	"knightking/internal/obs/tracelog"
	"knightking/internal/stats"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "input graph file (required)")
		binary     = flag.Bool("binary", false, "graph file is in binary CSR format")
		undirected = flag.Bool("undirected", false, "double text edges into both directions")
		nodes      = flag.Int("nodes", 4, "simulated cluster nodes")
		workers    = flag.Int("workers", 4, "worker goroutines per node")
		walkers    = flag.Int("walkers", 0, "walker count (0 = |V|)")
		seed       = flag.Uint64("seed", 1, "run seed")
		dump       = flag.String("dump", "", "dump walk sequences to this file (- = stdout)")
		visits     = flag.String("visits", "", "dump per-vertex visit counts to this file (- = stdout)")
		noLight    = flag.Bool("nolight", false, "disable straggler-aware light mode")
		netTimeout = flag.Duration("net-timeout", 0, "fail any exchange barrier not completing within this duration (0 = wait forever)")
		ckptDir    = flag.String("checkpoint-dir", "", "snapshot walk state into this directory")
		ckptEvery  = flag.Int("checkpoint-every", 16, "supersteps between checkpoints")
		resume     = flag.Bool("resume", false, "resume from the latest complete checkpoint in -checkpoint-dir")
		adminAddr  = flag.String("admin-addr", "", "serve /metrics, /statusz, /trace, and /debug/pprof on this host:port while running")
		spansPath  = flag.String("spans", "", "stream per-superstep span records to this file as JSONL (- = stderr)")
		tracePath  = flag.String("trace", "", "write the causal trace (Perfetto JSON) to this file (- = stdout)")
		traceEvery = flag.Int64("trace-sample", 0, "trace one in N walker journeys by walker ID (0 = default 64; requires -trace)")
		jsonOut    = flag.Bool("json", false, "print the end-of-run report as exactly one JSON line on stdout")
		quiet      = flag.Bool("quiet", false, "suppress the human-readable summary and progress lines on stderr")
	)
	var spec alg.Spec
	spec.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *graphPath == "" {
		fatalf("-graph is required")
	}
	program, err := spec.Build()
	if err != nil {
		fatalf("%v", err)
	}
	if *walkers < 0 || *nodes < 0 || *workers < 0 {
		fatalf("walkers, nodes, workers must be non-negative")
	}
	if *jsonOut && (*dump == "-" || *visits == "-" || *tracePath == "-") {
		fatalf("-json owns stdout; write -dump/-visits/-trace to a file instead of -")
	}
	if *traceEvery != 0 && *tracePath == "" {
		fatalf("-trace-sample requires -trace")
	}
	if *traceEvery < 0 {
		fatalf("-trace-sample must be non-negative")
	}

	progressf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	// Telemetry is opt-in: any of the reporting flags builds a registry. The
	// registry is the engine's Observer, so wiring it below is the whole
	// integration; runs without these flags pay only nil-observer branches.
	var reg *obs.Registry
	if *adminAddr != "" || *spansPath != "" || *jsonOut || *tracePath != "" {
		reg = obs.NewRegistry(nil)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fatalf("open graph: %v", err)
	}
	var g *graph.Graph
	if *binary {
		g, err = graph.ReadBinary(f)
	} else {
		g, err = graph.ReadEdgeList(f, *undirected, 0)
	}
	f.Close()
	if err != nil {
		fatalf("load graph: %v", err)
	}

	effWalkers := *walkers
	if effWalkers == 0 {
		effWalkers = g.NumVertices()
	}
	lt := 0 // default threshold
	if *noLight {
		lt = -1
	}
	cfg := core.Config{
		Graph:          g,
		Algorithm:      program,
		NumNodes:       *nodes,
		Workers:        *workers,
		NumWalkers:     *walkers,
		Seed:           *seed,
		RecordPaths:    *dump != "",
		CountVisits:    *visits != "",
		LightThreshold: lt,
		NetTimeout:     *netTimeout,
	}

	ranks := max(*nodes, 1)
	if reg != nil {
		cfg.Counters = reg.Counters()
		cfg.Observer = reg
		reg.SetRunInfo(program.Name, g.NumVertices(), g.NumEdges(), ranks)
	}

	// The trace collector rides the registry for superstep spans (the
	// registry forwards) and is the engine's Tracer for walker journeys and
	// exchange spans.
	var tc *tracelog.Collector
	if *tracePath != "" {
		tc = tracelog.New(tracelog.Options{
			SampleEvery: *traceEvery,
			Ranks:       ranks,
			Job:         program.Name,
		})
		reg.SetTrace(tc)
		cfg.Trace = tc
	}

	var spansFlush func()
	if *spansPath != "" {
		out := os.Stderr
		if *spansPath != "-" {
			sf, serr := os.Create(*spansPath)
			if serr != nil {
				fatalf("create spans: %v", serr)
			}
			out = sf
		}
		w := bufio.NewWriter(out)
		reg.SetSpanWriter(w)
		spansFlush = func() {
			if err := w.Flush(); err != nil {
				fatalf("write spans: %v", err)
			}
			if out != os.Stderr {
				if err := out.Close(); err != nil {
					fatalf("close spans: %v", err)
				}
			}
		}
	}

	if *adminAddr != "" {
		srv, aerr := obs.NewServer(*adminAddr, reg)
		if aerr != nil {
			fatalf("%v", aerr)
		}
		// Graceful close: an in-flight scrape or trace export racing process
		// exit completes instead of seeing a reset connection.
		defer srv.Shutdown(0)
		progressf("admin server on http://%s (/metrics /statusz /trace /debug/pprof)\n", srv.Addr())
	}

	if *resume && *ckptDir == "" {
		fatalf("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		meta := checkpoint.Meta{
			Seed:        *seed,
			NumWalkers:  uint64(effWalkers),
			NumVertices: uint64(g.NumVertices()),
			Algorithm:   program.Name,
		}
		store, serr := checkpoint.NewStore(*ckptDir, *ckptEvery, meta)
		if serr != nil {
			fatalf("%v", serr)
		}
		cfg.Checkpoint = store
		if *resume {
			cp, lerr := checkpoint.Load(*ckptDir)
			if lerr != nil {
				fatalf("%v", lerr)
			}
			if verr := cp.Validate(meta); verr != nil {
				fatalf("%v", verr)
			}
			cfg.Restore = cp.RestoreState()
			progressf("resuming from the superstep-%d checkpoint\n", cp.Iteration)
		}
	}

	// Cooperative shutdown: the first SIGINT/SIGTERM closes the engine's
	// cancel channel, so every rank leaves at the same superstep barrier
	// and committed checkpoints stay valid resume points.
	// A second signal force-exits for runs that are past reasoning with.
	cancelCh := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		progressf("kkwalk: received %v; cancelling at the next superstep barrier\n", sig)
		close(cancelCh)
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "kkwalk: received second %v; exiting immediately\n", sig)
		os.Exit(1)
	}()
	cfg.Cancel = cancelCh

	res, err := core.Run(cfg)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			fatalf("interrupted: %v (no results written; resume with -checkpoint-dir/-resume if checkpointing was on)", err)
		}
		fatalf("run: %v", err)
	}
	if spansFlush != nil {
		spansFlush()
	}
	if tc != nil {
		out := os.Stdout
		if *tracePath != "-" {
			tf, terr := os.Create(*tracePath)
			if terr != nil {
				fatalf("create trace: %v", terr)
			}
			out = tf
		}
		w := bufio.NewWriter(out)
		if terr := tc.WritePerfetto(w); terr != nil {
			fatalf("write trace: %v", terr)
		}
		if terr := w.Flush(); terr != nil {
			fatalf("write trace: %v", terr)
		}
		if out != os.Stdout {
			if terr := out.Close(); terr != nil {
				fatalf("close trace: %v", terr)
			}
		}
		progressf("trace written to %s (open at https://ui.perfetto.dev)\n", *tracePath)
	}

	// res.Counters is the post-join snapshot Run took after every
	// worker goroutine finished, so every cross-field ratio in the report is
	// exact (the Counters doc's consistency contract; mid-run snapshots from
	// the admin server are only per-field consistent).
	rep := stats.NewReport(res.Counters, stats.RunInfo{
		Algorithm:   program.Name,
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		Ranks:       ranks,
		Walkers:     int64(effWalkers),
		Supersteps:  res.Iterations,
		LightSupers: res.LightIterations,
		Duration:    res.Duration,
		Setup:       res.SetupDuration,
	})
	if reg != nil {
		reg.FillReport(&rep)
	}
	if !*quiet {
		if err := rep.WriteHuman(os.Stderr); err != nil {
			fatalf("write report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "walk length: mean %.1f, max %d\n",
			res.Lengths.Mean(), res.Lengths.Max())
	}
	if *jsonOut {
		line, jerr := rep.JSONLine()
		if jerr != nil {
			fatalf("encode report: %v", jerr)
		}
		fmt.Println(line)
	}

	if *visits != "" {
		out := os.Stdout
		if *visits != "-" {
			vf, err := os.Create(*visits)
			if err != nil {
				fatalf("create visits: %v", err)
			}
			defer func() {
				if err := vf.Close(); err != nil {
					fatalf("close visits: %v", err)
				}
			}()
			out = vf
		}
		w := bufio.NewWriter(out)
		for v, n := range res.Visits {
			fmt.Fprintf(w, "%d %d\n", v, n)
		}
		if err := w.Flush(); err != nil {
			fatalf("write visits: %v", err)
		}
	}

	if *dump != "" {
		out := os.Stdout
		if *dump != "-" {
			df, err := os.Create(*dump)
			if err != nil {
				fatalf("create dump: %v", err)
			}
			defer func() {
				if err := df.Close(); err != nil {
					fatalf("close dump: %v", err)
				}
			}()
			out = df
		}
		w := bufio.NewWriter(out)
		for _, path := range res.Paths {
			for i, v := range path {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, v)
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			fatalf("write dump: %v", err)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kkwalk: "+format+"\n", args...)
	os.Exit(1)
}
