// Command kkbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	kkbench -list
//	kkbench -exp table3
//	kkbench -exp all -scale 2 -nodes 8
package main

import (
	"flag"
	"fmt"
	"os"

	"knightking/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale = flag.Float64("scale", 1, "graph size multiplier")
		seed  = flag.Uint64("seed", 0, "seed (0 = default)")
		nodes = flag.Int("nodes", 4, "simulated cluster nodes")
		quick = flag.Bool("quick", false, "tiny smoke-test workloads")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	o := bench.Options{
		Out:   os.Stdout,
		Scale: *scale,
		Seed:  *seed,
		Nodes: *nodes,
		Quick: *quick,
	}
	if *exp == "all" {
		if err := bench.RunAll(o); err != nil {
			fatalf("%v", err)
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fatalf("unknown experiment %q (use -list)", *exp)
	}
	fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
	if err := e.Run(o); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kkbench: "+format+"\n", args...)
	os.Exit(1)
}
