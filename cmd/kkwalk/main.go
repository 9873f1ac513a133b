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

	"knightking/internal/core"
	"knightking/internal/graph"
	"knightking/internal/job"
	"knightking/internal/obs"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "input graph file (required)")
		binary     = flag.Bool("binary", false, "graph file is in binary CSR format")
		undirected = flag.Bool("undirected", false, "double text edges into both directions")
		nodes      = flag.Int("nodes", 4, "simulated cluster nodes")
		dump       = flag.String("dump", "", "dump walk sequences to this file (- = stdout)")
		visits     = flag.String("visits", "", "dump per-vertex visit counts to this file (- = stdout)")
		noLight    = flag.Bool("nolight", false, "disable straggler-aware light mode")
		netTimeout = flag.Duration("net-timeout", 0, "fail any exchange barrier not completing within this duration (0 = wait forever)")
		ckptDir    = flag.String("checkpoint-dir", "", "snapshot walk state into this directory")
		resume     = flag.Bool("resume", false, "resume from the latest complete checkpoint in -checkpoint-dir")
		adminAddr  = flag.String("admin-addr", "", "serve /metrics, /statusz, /trace, and /debug/pprof on this host:port while running")
		spansPath  = flag.String("spans", "", "stream per-superstep span records to this file as JSONL (- = stderr)")
		tracePath  = flag.String("trace", "", "write the causal trace (Perfetto JSON) to this file (- = stdout)")
		traceEvery = flag.Int64("trace-sample", 0, "trace one in N walker journeys by walker ID (0 = default 64; requires -trace)")
		jsonOut    = flag.Bool("json", false, "print the end-of-run report as exactly one JSON line on stdout")
		quiet      = flag.Bool("quiet", false, "suppress the human-readable summary and progress lines on stderr")
	)
	var spec job.Spec
	spec.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *graphPath == "" {
		fatalf("-graph is required")
	}
	if *nodes < 0 {
		fatalf("nodes must be non-negative")
	}
	if err := spec.Validate(*ckptDir); err != nil {
		fatalf("%v", err)
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
	if *resume && *ckptDir == "" {
		fatalf("-resume requires -checkpoint-dir")
	}

	progressf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	// Telemetry is opt-in: any of the reporting flags builds a registry,
	// which the job runner makes the engine's Observer (with the trace
	// collector riding it); runs without these flags pay only nil-observer
	// branches.
	var reg *obs.Registry
	if *adminAddr != "" || *spansPath != "" || *jsonOut || *tracePath != "" {
		reg = obs.NewRegistry(nil)
	}

	g, err := graph.Open(*graphPath, *binary, *undirected)
	if err != nil {
		fatalf("load graph: %v", err)
	}

	// Cooperative shutdown: the first SIGINT/SIGTERM closes the engine's
	// cancel channel, so every rank leaves at the same superstep barrier
	// and committed checkpoints stay valid resume points.
	// A second signal force-exits for runs that are past reasoning with.
	cancelCh := make(chan struct{})
	lt := 0 // default threshold
	if *noLight {
		lt = -1
	}
	run, err := job.Prepare(spec, g, job.Wiring{
		Nodes:          *nodes,
		CheckpointDir:  *ckptDir,
		Resume:         *resume,
		Registry:       reg,
		Trace:          *tracePath != "",
		TraceSample:    *traceEvery,
		Cancel:         cancelCh,
		RecordPaths:    *dump != "",
		CountVisits:    *visits != "",
		NetTimeout:     *netTimeout,
		LightThreshold: lt,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *resume {
		progressf("resuming from the superstep-%d checkpoint\n", run.ResumeIter)
	}

	var closeSpans func()
	if *spansPath != "" {
		var w *bufio.Writer
		w, closeSpans = output(*spansPath, os.Stderr, "spans")
		reg.SetSpanWriter(w)
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

	res, rep, err := run.Run()
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			fatalf("interrupted: %v (no results written; resume with -checkpoint-dir/-resume if checkpointing was on)", err)
		}
		fatalf("run: %v", err)
	}
	if closeSpans != nil {
		closeSpans()
	}
	if tc := run.Trace; tc != nil {
		w, closeTrace := output(*tracePath, os.Stdout, "trace")
		if err := tc.WritePerfetto(w); err != nil {
			fatalf("write trace: %v", err)
		}
		closeTrace()
		progressf("trace written to %s (open at https://ui.perfetto.dev)\n", *tracePath)
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
		w, closeVisits := output(*visits, os.Stdout, "visits")
		for v, n := range res.Visits {
			fmt.Fprintf(w, "%d %d\n", v, n)
		}
		closeVisits()
	}

	if *dump != "" {
		w, closeDump := output(*dump, os.Stdout, "dump")
		for _, path := range res.Paths {
			for i, v := range path {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, v)
			}
			fmt.Fprintln(w)
		}
		closeDump()
	}
}

// output opens path for buffered writing ("-" = std) and returns the
// writer with the function that flushes and closes it; what names the
// output in error messages.
func output(path string, std *os.File, what string) (*bufio.Writer, func()) {
	f := std
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			fatalf("create %s: %v", what, err)
		}
	}
	w := bufio.NewWriter(f)
	return w, func() {
		if err := w.Flush(); err != nil {
			fatalf("write %s: %v", what, err)
		}
		if f != std {
			if err := f.Close(); err != nil {
				fatalf("close %s: %v", what, err)
			}
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kkwalk: "+format+"\n", args...)
	os.Exit(1)
}
