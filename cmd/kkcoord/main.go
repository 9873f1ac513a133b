// Command kkcoord is the cluster coordinator: it owns one walk job's
// spec, seats kkrank workers into ranks, hands out the 1-D partition and
// the data-plane peer list, releases the start barrier, and fails over —
// abort, re-handout, resume from the newest complete checkpoint — when a
// rank dies mid-run.
//
// Usage:
//
//	kkcoord -graph g.txt -alg deepwalk -length 80 -ranks 3 \
//	        -checkpoint-dir /shared/ckpt -dump-dir /shared/walks
//	kkrank -coord <addr>     # once per rank (plus optional spares)
//
// The control address is printed on stderr (and written to -addr-file for
// scripts); workers need nothing else on their command line. -admin-addr
// serves /metrics (kk_rank_up, kk_rank_heartbeat_age_seconds,
// kk_failover_total, ...), /statusz, and /trace while the job runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"knightking/internal/coord"
	"knightking/internal/job"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "input graph file (required; must be readable by every worker)")
		binary     = flag.Bool("binary", false, "graph file is in binary CSR format (workers load only their slice)")
		undirected = flag.Bool("undirected", false, "double text edges into both directions")
		netTimeout = flag.Duration("net-timeout", 30*time.Second, "exchange barrier + TCP deadline on the data plane (0 = wait forever)")
		ckptDir    = flag.String("checkpoint-dir", "", "shared checkpoint directory (enables failover resume)")
		resume     = flag.Bool("resume", false, "resume the first attempt from -checkpoint-dir")
		dumpDir    = flag.String("dump-dir", "", "shared directory for per-rank walk dumps (walks-rankNNNNN.txt)")
		ranks      = flag.Int("ranks", 3, "cluster size (number of kkrank workers to seat)")
		control    = flag.String("control", "127.0.0.1:0", "control-plane listen address")
		addrFile   = flag.String("addr-file", "", "write the bound control address to this file (for scripts)")
		adminAddr  = flag.String("admin-addr", "", "serve /metrics, /statusz, /trace on this host:port")
		hbTimeout  = flag.Duration("heartbeat-timeout", coord.DefaultHeartbeatTimeout, "declare a rank dead after this much heartbeat silence")
		gatherTO   = flag.Duration("gather-timeout", 0, "fail the job if the cluster cannot assemble within this duration (0 = wait forever)")
		maxAtt     = flag.Int("max-attempts", coord.DefaultMaxAttempts, "give up after this many mesh attempts")
		tracePath  = flag.String("trace", "", "write the control-plane causal trace (Perfetto JSON) to this file at exit")
		jsonOut    = flag.Bool("json", false, "print the job summary as one JSON line on stdout")
	)
	var spec job.Spec
	spec.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *graphPath == "" {
		fatalf("-graph is required")
	}

	logger := log.New(os.Stderr, "kkcoord: ", log.Lmicroseconds)
	c, err := coord.New(coord.Options{
		Spec: coord.JobSpec{
			GraphPath:     *graphPath,
			GraphBinary:   *binary,
			Undirected:    *undirected,
			Spec:          spec,
			NetTimeoutMS:  netTimeout.Milliseconds(),
			CheckpointDir: *ckptDir,
			DumpDir:       *dumpDir,
		},
		Ranks:            *ranks,
		ControlAddr:      *control,
		AdminAddr:        *adminAddr,
		Resume:           *resume,
		HeartbeatTimeout: *hbTimeout,
		GatherTimeout:    *gatherTO,
		MaxAttempts:      *maxAtt,
		Logf:             logger.Printf,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "kkcoord: control address %s\n", c.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(c.Addr()), 0o644); err != nil {
			fatalf("write -addr-file: %v", err)
		}
	}

	sum, runErr := c.Run()

	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fatalf("create trace: %v", err)
		}
		w := bufio.NewWriter(tf)
		if err := c.WriteTrace(w); err != nil {
			fatalf("write trace: %v", err)
		}
		if err := w.Flush(); err != nil {
			fatalf("write trace: %v", err)
		}
		if err := tf.Close(); err != nil {
			fatalf("close trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "kkcoord: trace written to %s (open at https://ui.perfetto.dev)\n", *tracePath)
	}

	if runErr != nil {
		fatalf("%v", runErr)
	}
	fmt.Fprintf(os.Stderr,
		"kkcoord: summary: %d supersteps, %d steps, %d terminations, %d messages, %d bytes, attempts=%d failovers=%d\n",
		sum.Iterations, sum.Steps, sum.Terminations, sum.Messages, sum.Bytes, sum.Attempts, sum.Failovers)
	if *jsonOut {
		b, err := json.Marshal(sum)
		if err != nil {
			fatalf("encode summary: %v", err)
		}
		fmt.Println(string(b))
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "kkcoord: "+format+"\n", args...)
	os.Exit(1)
}
