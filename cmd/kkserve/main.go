// Command kkserve is the long-running walk job server: it loads graphs
// once into a named registry and runs many walk jobs against them through
// a bounded scheduler, exposing an HTTP/JSON control surface.
//
// Usage:
//
//	kkserve -addr localhost:7474 -workers 2 -queue 64
//	kkserve -addr localhost:7474 -graph social=g.txt -graph web=w.bin:binary
//	kkserve -addr localhost:7474 -checkpoint-root /var/lib/kk/ckpt
//
// Graphs can be preloaded with repeated -graph name=path[:binary][:undirected]
// flags or loaded later via POST /graphs. Loaded graphs are dynamic:
// edge deltas ingested while the server runs publish new epochs, and
// each job is pinned to the epoch current at its admission. The API:
//
//	POST   /graphs                 {"name":..., "path":..., "binary":..., "undirected":...}
//	GET    /graphs
//	POST   /graphs/{name}/edges    {"edges":[{"src":0,"dst":1,"weight":2.5}, {"op":"delete",...}, ...]}
//	POST   /graphs/{name}/compact  fold the delta overlay into a fresh CSR
//	POST   /jobs                   {"graph":..., "alg":..., "seed":..., ...}
//	GET    /jobs                   all retained jobs
//	GET    /jobs/{id}              status (includes the pinned epoch)
//	GET    /jobs/{id}/result       walk report (done jobs)
//	GET    /jobs/{id}/trace        Perfetto JSON causal trace (jobs submitted with "trace": true)
//	DELETE /jobs/{id}              cancel, or discard a terminal job's record
//	GET    /metrics /statusz /healthz /debug/pprof
//
// SIGINT/SIGTERM shuts down cleanly: the HTTP server drains in-flight
// requests (bounded), and in-flight jobs are cancelled at their next
// superstep barrier before the process exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"knightking/internal/graph"
	"knightking/internal/service"
)

// graphFlags collects repeated -graph name=path[:binary][:undirected]
// values.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

func main() {
	var graphs graphFlags
	var (
		addr         = flag.String("addr", "localhost:7474", "HTTP listen address")
		workers      = flag.Int("workers", 2, "concurrent walk jobs")
		queue        = flag.Int("queue", 64, "admission queue depth (submissions beyond it get 429)")
		ckptRoot     = flag.String("checkpoint-root", "", "enable per-job checkpointing under this directory")
		compactAfter = flag.Int("compact-after", 0, "auto-compact a graph after this many ingested deltas (0 = explicit compaction only)")
	)
	flag.Var(&graphs, "graph", "preload a graph: name=path[:binary][:undirected] (repeatable)")
	flag.Parse()

	svc := service.New(service.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		CheckpointRoot: *ckptRoot,
		CompactAfter:   *compactAfter,
	})

	for _, spec := range graphs {
		name, g, err := loadGraphFlag(spec)
		if err != nil {
			fatalf("%v", err)
		}
		info, err := svc.Graphs.Register(name, g)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "kkserve: loaded graph %q: %d vertices, %d edges, fingerprint %s\n",
			info.Name, info.Vertices, info.Edges, info.Fingerprint)
	}

	if err := svc.Start(); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "kkserve: serving on http://%s\n", svc.Addr())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	fmt.Fprintf(os.Stderr, "kkserve: received %v; cancelling outstanding jobs\n", sig)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "kkserve: received second %v; exiting immediately\n", sig)
		os.Exit(1)
	}()
	if err := svc.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
}

// loadGraphFlag parses one -graph value and loads the file.
func loadGraphFlag(spec string) (string, *graph.Graph, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return "", nil, fmt.Errorf("bad -graph %q (want name=path[:binary][:undirected])", spec)
	}
	parts := strings.Split(rest, ":")
	path := parts[0]
	var binary, undirected bool
	for _, opt := range parts[1:] {
		switch opt {
		case "binary":
			binary = true
		case "undirected":
			undirected = true
		default:
			return "", nil, fmt.Errorf("bad -graph option %q in %q", opt, spec)
		}
	}
	g, err := graph.Open(path, binary, undirected)
	if err != nil {
		return "", nil, fmt.Errorf("load graph %q: %v", path, err)
	}
	return name, g, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kkserve: "+format+"\n", args...)
	os.Exit(1)
}
