package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"knightking/internal/core"
	"knightking/internal/dyngraph"
	"knightking/internal/graph"
)

// env is what one run works with: where the programs are, a private
// directory that is removed at exit, and the children it started.
type env struct {
	ctx    context.Context
	binDir string
	tmp    string
	outDir string
	ps     *procs
	sz     sizes
	seed   uint64
}

// tally counts the operations a run attempted and the ones that failed,
// and keeps the first few reasons. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

func (t *tally) try() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

// outcome is one run's numbers before they are printed.
type outcome struct {
	tally
	metrics map[string]measured
	notes   []string // sizes and environment, printed for the record
}

// measured is one metric's value with the samples behind it, if any.
type measured struct {
	value   float64
	samples []float64
}

func one(v float64) measured              { return measured{value: v} }
func medianOf(samples []float64) measured { return measured{value: median(samples), samples: samples} }

// bestTime and bestRate report a time or a rate sampled over a run by its
// best sample; see best.
func bestTime(samples []float64) measured {
	return measured{value: best(samples, "lower"), samples: samples}
}
func bestRate(samples []float64) measured {
	return measured{value: best(samples, "higher"), samples: samples}
}

func (o *outcome) note(f string, a ...any) { o.notes = append(o.notes, fmt.Sprintf(f, a...)) }
func (o *outcome) noteGraph(g *graph.Graph) {
	o.note("graph: |V| %d, |E| %d, working set %.1f MiB", g.NumVertices(), g.NumEdges(), float64(workingSetBytes(g))/(1<<20))
}

func deepwalkCase(sz sizes, seed uint64) engineCase {
	g := genDeepwalkGraph(sz, seed)
	return engineCase{g: g, alg: func() *core.Algorithm { return deepwalkAlg(sz.dwLength) }, walkers: g.NumVertices(), length: sz.dwLength, seed: subSeed(seed, "walk")}
}

func node2vecCase(sz sizes, seed uint64) engineCase {
	g := genNode2vecGraph(sz, seed)
	return engineCase{g: g, alg: func() *core.Algorithm { return node2vecAlg(sz) }, walkers: g.NumVertices(), length: sz.n2vLength, seed: subSeed(seed, "walk")}
}

// runInproc is the untraced run of deepwalk_inproc and node2vec_inproc. It
// sets up sz.setups times (generate the graph, one warm-up walk) and
// repeats the walk after every set-up for an equal share of the measuring
// time, so a run's repetitions cover several instances of the graph in
// memory and the whole length of the run. Then it checks the walks.
func runInproc(e *env, seconds float64, build func(sizes, uint64) engineCase) *outcome {
	o := &outcome{}
	var c engineCase
	var first *core.Result
	var setupS, waitMS, stepsPerS, rssMB []float64
	for i := 0; i < e.sz.setups; i++ {
		c = engineCase{} // let the previous graph go before building the next
		runtime.GC()
		start := time.Now()
		c = build(e.sz, e.seed)
		res, _, err := c.run(nil)
		setupS = append(setupS, time.Since(start).Seconds())
		o.try()
		if err == nil {
			err = c.checkCounts(res.Counters.Steps, res.Counters.Terminations)
		}
		if err != nil {
			o.fail("warm-up: %v", err)
		}
		measureStart := time.Now()
		for rep := 0; rep == 0 || time.Since(measureStart).Seconds() < seconds/float64(e.sz.setups); rep++ {
			resetHWM("self")
			res, wait, err := c.run(nil)
			o.try()
			if err == nil {
				err = c.checkCounts(res.Counters.Steps, res.Counters.Terminations)
			}
			if err != nil {
				o.fail("repetition %d: %v", rep, err)
				continue
			}
			rssMB = append(rssMB, selfRSSMB())
			waitMS = append(waitMS, wait.Seconds()*1e3)
			stepsPerS = append(stepsPerS, float64(res.Counters.Steps)/wait.Seconds())
			if first == nil {
				first = res
			} else if a, b := res.Counters, first.Counters; a.Trials != b.Trials || a.EdgeProbEvals != b.EdgeProbEvals || a.Queries != b.Queries {
				o.fail("repetition %d: trials/evals/queries %d/%d/%d differ from the first repetition's %d/%d/%d", rep,
					a.Trials, a.EdgeProbEvals, a.Queries, b.Trials, b.EdgeProbEvals, b.Queries)
			}
		}
	}
	o.try()
	if _, err := c.verifyPaths(min(e.sz.verifyWalkers, c.walkers)); err != nil {
		o.fail("path check: %v", err)
	}
	o.noteGraph(c.g)
	o.metrics = map[string]measured{
		"steps_per_s": bestRate(stepsPerS),
		"wait_ms":     bestTime(waitMS),
		"peak_rss_mb": medianOf(rssMB),
		"setup_s":     bestTime(setupS),
	}
	return o
}

// clusterJobSpec is the deepwalk_cluster job on the graph at path.
func clusterJobSpec(sz sizes, seed uint64, path string, walkers int) clusterSpec {
	return clusterSpec{graphPath: path, walkers: walkers, length: sz.dwLength, seed: subSeed(seed, "walk"), ckptEvery: sz.checkpointEvery}
}

// verifyClusterPaths runs a small job that dumps its walks and wants them
// byte-identical to the in-process run of the same seed.
func verifyClusterPaths(e *env, rec *recorder, parent int, c engineCase, path string, dir string) error {
	spec := clusterJobSpec(e.sz, e.seed, path, min(e.sz.verifyWalkers, c.walkers))
	spec.dump = true
	job, err := runClusterJob(e.ctx, rec, parent, "verify", e.ps, e.binDir, dir, spec)
	if err != nil {
		return err
	}
	defer os.RemoveAll(job.dumpDir)
	got, err := mergeDumps(job.dumpDir)
	if err != nil {
		return err
	}
	want, err := c.verifyPaths(spec.walkers)
	if err != nil {
		return err
	}
	if len(got) != len(want) || pathDigest(got) != pathDigest(want) {
		return fmt.Errorf("cluster dump (%d walks, digest %016x) differs from the in-process run (%d walks, %016x)",
			len(got), pathDigest(got), len(want), pathDigest(want))
	}
	return nil
}

// checkClusterJob is the correctness gate of one cluster job.
func checkClusterJob(c engineCase, job *clusterOutcome, attempts int) error {
	if err := c.checkCounts(job.sum.Steps, job.sum.Terminations); err != nil {
		return err
	}
	if job.sum.Attempts != attempts {
		return fmt.Errorf("%d attempts, want %d", job.sum.Attempts, attempts)
	}
	return nil
}

// runCluster is the untraced run of deepwalk_cluster: every repetition is
// a fresh coordinator and two fresh rank processes. Like the in-process
// rows it repeats the job after every set-up, for an equal share of the
// measuring time.
func runCluster(e *env, seconds float64) *outcome {
	o := &outcome{}
	var c engineCase
	var setupS, stepsPerS, waitMS, rssMB []float64
	path := filepath.Join(e.tmp, "deepwalk.bin")
	for i := 0; i < e.sz.setups; i++ {
		c = engineCase{}
		runtime.GC()
		start := time.Now()
		c = deepwalkCase(e.sz, e.seed)
		o.try()
		if _, err := writeBinaryGraph(path, c.g); err != nil {
			o.fail("write graph: %v", err)
			return o
		}
		// The warm-up job is also the path check: it pages in the programs
		// and the graph file, and its dump must match the in-process walk.
		if err := verifyClusterPaths(e, nil, 0, c, path, filepath.Join(e.tmp, "verify")); err != nil {
			o.fail("path check: %v", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())

		spec := clusterJobSpec(e.sz, e.seed, path, c.walkers)
		measureStart := time.Now()
		for rep := 0; rep == 0 || time.Since(measureStart).Seconds() < seconds/float64(e.sz.setups); rep++ {
			o.try()
			job, err := runClusterJob(e.ctx, nil, 0, "", e.ps, e.binDir, filepath.Join(e.tmp, "job"), spec)
			if err == nil {
				err = checkClusterJob(c, job, 1)
			}
			if err != nil {
				o.fail("job %d: %v", rep, err)
				continue
			}
			stepsPerS = append(stepsPerS, float64(job.sum.Steps)/job.walkS)
			waitMS = append(waitMS, job.waitS*1e3)
			rssMB = append(rssMB, job.rssMB)
		}
	}
	o.noteGraph(c.g)
	o.metrics = map[string]measured{
		"steps_per_s": bestRate(stepsPerS),
		"wait_ms":     bestTime(waitMS),
		"peak_rss_mb": medianOf(rssMB),
		"setup_s":     bestTime(setupS),
	}
	return o
}

func serveSpecFor(sz sizes, seed uint64, g *graph.Graph, path string) serveSpec {
	return serveSpec{
		graphPath: path, vertices: g.NumVertices(), hubs: topDegree(g, sz.srvHubs),
		walkers: sz.srvWalkers, length: sz.srvLength, seed: seed,
		batch: sz.srvBatch, compactAfter: sz.srvCompactAfter,
	}
}

// minServeJobs makes sure both clients reach their 4th job, so even the
// shortest run has ingest beside the walks. resubmitJob is the job index
// (and so the walk seed) of the identical-resubmission check, far from
// any index the clients reach.
const (
	minServeJobs = 4 * clients
	resubmitJob  = 1 << 30
	rssSlice     = 2 * time.Second // kkserve's peak resident set is taken per slice of this length
)

// runServe is the untraced run of serve_mixed.
func runServe(e *env, seconds float64) *outcome {
	o := &outcome{}
	var srv *serveServer
	var spec serveSpec
	var setupS []float64
	path := filepath.Join(e.tmp, "serve.bin")
	warm := &serveLoad{}
	for i := 0; i < e.sz.setups; i++ {
		if srv != nil {
			srv.proc.stop(5 * time.Second)
		}
		runtime.GC()
		start := time.Now()
		g := genServeGraph(e.sz, e.seed)
		if i == 0 {
			o.noteGraph(g)
		}
		if _, err := writeBinaryGraph(path, g); err != nil {
			o.fail("write graph: %v", err)
			return o
		}
		spec = serveSpecFor(e.sz, e.seed, g, path)
		var err error
		if srv, err = startServe(e.ctx, e.ps, e.binDir, spec); err != nil {
			o.fail("%v", err)
			return o
		}
		c := newClient(srv, nil, 0, warm)
		for j := 0; j < e.sz.srvWarmJobs; j++ {
			c.runJob(spec, j, false)
		}
		c.http.CloseIdleConnections()
		setupS = append(setupS, time.Since(start).Seconds())
	}
	srv.proc.sliceRSS(rssSlice)
	load := srv.drive(nil, 0, spec, seconds, minServeJobs, e.sz.srvWarmJobs)
	srv.proc.sliceRSS(0)
	srv.resubmitCheck(nil, 0, spec, load, resubmitJob)
	srv.proc.stop(5 * time.Second)
	o.add(&warm.tally)
	o.add(&load.tally)
	blockStepsPerS, blockWaitMS := load.blocks(e.sz.srvBlockJobs)
	o.note("%d jobs and %d delta batches in %.2f s, %d blocks of %d jobs", len(load.submitResultMS), len(load.ingestMS), load.windowS, len(blockWaitMS), e.sz.srvBlockJobs)
	o.metrics = map[string]measured{
		"steps_per_s": bestRate(blockStepsPerS),
		"wait_ms":     bestTime(blockWaitMS),
		"peak_rss_mb": medianOf(srv.proc.slicePeaksMB()),
		"setup_s":     bestTime(setupS),
	}
	return o
}

// runTraced is the one extra run per workload that yields the per-layer
// ladder: every call into a layer sits in a span, the engine reports its
// supersteps to the benchmark's observer, and the spans are written out
// at the end. The engine, cluster and service parts run at full size for
// the workload they belong to and at tiny size otherwise, so every rung
// is measured, not assumed, in every traced run.
func runTraced(e *env, workload string, seconds float64) *outcome {
	o := &outcome{metrics: map[string]measured{}}
	rec := newRecorder()
	root := rec.begin(0, "run", "kkperf", "traced run")
	m := map[string]float64{}
	step := func(what string, err error) bool {
		o.try()
		if err != nil {
			o.fail("%s: %v", what, err)
		}
		return err == nil
	}
	tiny := scales["tiny"]

	// The workload's own graph and engine configuration.
	var c engineCase
	gen := rec.begin(root, "run", "graph", "generate")
	start := time.Now()
	switch workload {
	case wDeepwalkInproc, wDeepwalkCluster:
		c = deepwalkCase(e.sz, e.seed)
	case wNode2vecInproc:
		c = node2vecCase(e.sz, e.seed)
	case wServeMixed:
		// One served job, with the tables a dyngraph epoch hands the engine.
		g := genServeGraph(e.sz, e.seed)
		d, err := dyngraph.New(g, dyngraph.Options{})
		if !step("dyngraph.New", err) {
			return o
		}
		ep := d.Epoch()
		c = engineCase{g: ep.View(), alg: func() *core.Algorithm { return deepwalkAlg(e.sz.srvLength) }, walkers: e.sz.srvWalkers, length: e.sz.srvLength, seed: subSeed(e.seed, "serve-job"), samplers: ep}
	}
	m["graph.gen_s"] = time.Since(start).Seconds()
	rec.end(gen)
	o.noteGraph(c.g)

	graphPath := filepath.Join(e.tmp, "workload-graph.bin")
	step("graph probes", graphProbes(rec, root, c.g, graphPath, m))

	eng := rec.begin(root, "run", "core", "engine ladder")
	lm, err := engineLadder(rec, eng, "run", c, e.sz, workload == wDeepwalkCluster, e.tmp)
	rec.end(eng)
	if step("engine ladder", err) {
		for k, v := range lm {
			m[k] = v
		}
	}

	step("sampling probes", samplingProbes(rec, root, e.seed, m))
	step("transport probes", transportProbes(rec, root, m))
	step("dyngraph probes", dyngraphProbes(rec, root, e.seed, m))

	// The control plane: at full size on the cluster row.
	clusterSz, clusterCase, clusterPath := tiny, engineCase{}, filepath.Join(e.tmp, "cluster-probe.bin")
	if workload == wDeepwalkCluster {
		clusterSz, clusterCase, clusterPath = e.sz, c, graphPath
	} else {
		clusterCase = deepwalkCase(tiny, e.seed)
		_, err := writeBinaryGraph(clusterPath, clusterCase.g)
		step("write cluster probe graph", err)
	}
	step("cluster ladder", clusterLadder(e, rec, root, clusterSz, clusterCase, clusterPath, m))

	// The service: at full size on the kkserve row.
	serveSz, servePath, serveSeconds := tiny, filepath.Join(e.tmp, "serve-probe.bin"), 1.0
	var serveGraph *graph.Graph
	if workload == wServeMixed {
		serveSz, servePath, serveSeconds = e.sz, graphPath, seconds
		serveGraph = genServeGraph(e.sz, e.seed) // the epoch view above is the same graph
	} else {
		serveGraph = genServeGraph(tiny, e.seed)
		_, err := writeBinaryGraph(servePath, serveGraph)
		step("write serve probe graph", err)
	}
	step("serve ladder", serveLadder(e, rec, root, serveSz, serveGraph, servePath, serveSeconds, o, m))

	rec.end(root)
	for k, v := range m {
		o.metrics[k] = one(v)
	}
	spans := rec.spans
	step("span nesting", checkNesting(spans))
	path, err := writeTrace(e.outDir, workload, e.seed, spans)
	if step("write trace", err) {
		o.note("%d spans written to %s", len(spans), path)
	}
	printComposition(os.Stdout, workload, spans)
	return o
}

// clusterLadder runs one traced job for the control-plane split and one
// more that loses rank 1 after its second committed checkpoint.
func clusterLadder(e *env, rec *recorder, parent int, sz sizes, c engineCase, path string, m map[string]float64) error {
	sub := *e
	sub.sz = sz
	span := rec.begin(parent, "cluster", "coord", "cluster ladder")
	defer rec.end(span)
	if err := verifyClusterPaths(&sub, rec, span, c, path, filepath.Join(e.tmp, "ladder-verify")); err != nil {
		return fmt.Errorf("path check: %w", err)
	}
	spec := clusterJobSpec(sz, e.seed, path, c.walkers)
	job, err := runClusterJob(e.ctx, rec, span, "cluster", e.ps, e.binDir, filepath.Join(e.tmp, "ladder-job"), spec)
	if err == nil {
		err = checkClusterJob(c, job, 1)
	}
	if err != nil {
		return err
	}
	m["coord.gather_ms"] = job.gatherMS
	m["coord.assign_to_start_ms"] = job.assignToStartMS
	m["coord.result_gather_ms"] = job.resultGatherMS
	if sz.foVertices == 0 {
		// Full size: the wire numbers of the real job are the exact ones.
		m["transport.bytes_per_step"] = float64(job.sum.Bytes) / float64(job.sum.Steps)
		m["transport.msgs_per_superstep"] = float64(job.sum.Messages) / float64(job.sum.Iterations)
	}

	// The failover job: the same job at full size; at tiny size a longer
	// walk on a small graph, so that the kill lands mid-run.
	fo, foCase, foPath, unkilledS := spec, c, path, job.waitS
	if sz.foVertices > 0 {
		foSz := sz
		foSz.dwVertices, foSz.dwLength = sz.foVertices, sz.foLength
		foCase = deepwalkCase(foSz, e.seed)
		foCase.walkers = sz.foWalkers
		foPath = filepath.Join(e.tmp, "failover.bin")
		if _, err := writeBinaryGraph(foPath, foCase.g); err != nil {
			return err
		}
		fo = clusterJobSpec(foSz, e.seed, foPath, sz.foWalkers)
		base, err := runClusterJob(e.ctx, rec, span, "failover-base", e.ps, e.binDir, filepath.Join(e.tmp, "failover-base"), fo)
		if err == nil {
			err = checkClusterJob(foCase, base, 1)
		}
		if err != nil {
			return fmt.Errorf("failover base job: %w", err)
		}
		unkilledS = base.waitS
	}
	fo.killAfter = 2 * fo.ckptEvery
	killed, err := runClusterJob(e.ctx, rec, span, "failover", e.ps, e.binDir, filepath.Join(e.tmp, "failover"), fo)
	if err == nil {
		err = checkClusterJob(foCase, killed, 2)
	}
	if err != nil {
		return fmt.Errorf("failover job: %w", err)
	}
	m["coord.failover_detect_ms"] = killed.detectMS
	m["coord.failover_resume_ms"] = killed.resumeMS
	m["coord.failover_overhead_s"] = killed.waitS - unkilledS
	return nil
}

// serveLadder runs the request mix once with every HTTP request in a span.
func serveLadder(e *env, rec *recorder, parent int, sz sizes, g *graph.Graph, path string, seconds float64, o *outcome, m map[string]float64) error {
	span := rec.begin(parent, "serve", "service", "serve ladder")
	defer rec.end(span)
	spec := serveSpecFor(sz, e.seed, g, path)
	var srv *serveServer
	err := rec.do(span, "serve", "service", "spawn kkserve", func(int) (err error) {
		srv, err = startServe(e.ctx, e.ps, e.binDir, spec)
		return err
	})
	if err != nil {
		return err
	}
	defer srv.proc.kill()
	load := srv.drive(rec, span, spec, seconds, minServeJobs, 0)
	srv.resubmitCheck(rec, span, spec, load, resubmitJob)
	compactions, err := srv.scrapeCounter("kk_serve_compactions_total")
	if err != nil {
		return err
	}
	srv.proc.stop(5 * time.Second)
	o.add(&load.tally)
	for k, v := range load.layerMetrics(compactions) {
		m[k] = v
	}
	wait, run, lag := median(load.queueWaitMS), median(load.jobRunMS), median(load.resultLagMS)
	pct, tail := tailPercentile(load.submitResultMS)
	o.note("serve ladder (|V| %d, %d jobs): submit->result p50 %.3f ms, p%v %.3f ms (the highest percentile with ten samples beyond it); queue wait %.3f + job run %.3f + result lag %.3f = %.3f ms",
		g.NumVertices(), len(load.submitResultMS), median(load.submitResultMS), pct, tail, wait, run, lag, wait+run+lag)
	return nil
}
