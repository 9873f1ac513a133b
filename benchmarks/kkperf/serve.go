package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knightking/internal/graph"
	"knightking/internal/rng"
)

const serveGraphName = "g"

// serveSpec is the request mix against one kkserve process.
type serveSpec struct {
	graphPath    string
	vertices     int
	hubs         []graph.VertexID // highest-degree vertices, half of every delta batch lands here
	walkers      int
	length       int
	seed         uint64
	batch        int
	compactAfter int
}

// topDegree returns the k highest-degree vertices of g.
func topDegree(g *graph.Graph, k int) []graph.VertexID {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	sort.Slice(vs, func(a, b int) bool {
		da, db := g.Degree(vs[a]), g.Degree(vs[b])
		return da > db || da == db && vs[a] < vs[b]
	})
	return vs[:min(k, len(vs))]
}

type serveServer struct {
	proc *child
	base string
}

// startServe spawns kkserve with the graph preloaded and one scheduler
// worker, and returns once it answers /healthz.
func startServe(ctx context.Context, ps *procs, binDir string, spec serveSpec) (*serveServer, error) {
	proc, err := ps.start(ctx, "", filepath.Join(binDir, "kkserve"),
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "64",
		"-compact-after", strconv.Itoa(spec.compactAfter),
		"-graph", serveGraphName+"="+spec.graphPath+":binary")
	if err != nil {
		return nil, err
	}
	for {
		if _, rest, ok := strings.Cut(proc.log(), "serving on http://"); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				s := &serveServer{proc: proc, base: "http://" + strings.TrimSpace(addr)}
				resp, err := http.Get(s.base + "/healthz")
				if err != nil {
					proc.kill()
					return nil, fmt.Errorf("kkserve /healthz: %w", err)
				}
				resp.Body.Close()
				return s, nil
			}
		}
		if proc.exited() {
			return nil, fmt.Errorf("kkserve exited during start-up: %v\n%s", proc.waitErr, proc.log())
		}
		select {
		case <-ctx.Done():
			proc.kill()
			return nil, fmt.Errorf("kkserve start-up: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// serveLoad is what the clients saw.
type serveLoad struct {
	tally
	mu             sync.Mutex // guards the samples below
	submitResultMS []float64  // POST /jobs sent -> result body received
	submitRTTMS    []float64
	queueWaitMS    []float64 // server clock: submitted_at -> started_at
	jobRunMS       []float64 // server clock: started_at -> finished_at
	resultLagMS    []float64 // finished_at -> client holds the result
	ingestMS       []float64
	finished       []finishedJob // every recorded job, for blocks
	start          time.Time     // when the clients started
	steps          int64
	windowS        float64
	rejected429    int
}

// finishedJob is one recorded job as the clock saw it.
type finishedJob struct {
	at    time.Duration // result in hand, since the clients started
	ms    float64       // POST /jobs sent -> result in hand
	steps int64
}

// blocks cuts the jobs, in the order their results arrived, into blocks of
// perBlock and returns one throughput and one median wait per block: the
// block's steps over the time from the previous block's last result to
// its own, and the median submit-to-result time of its jobs. A run reports
// the best of these (best), like the engine rows do of their repetitions.
// Jobs left over after the last whole block are not used, unless there is
// no whole block at all.
func (l *serveLoad) blocks(perBlock int) (stepsPerS, waitMS []float64) {
	jobs := append([]finishedJob(nil), l.finished...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].at < jobs[j].at })
	if len(jobs) > 0 && len(jobs) < perBlock {
		perBlock = len(jobs)
	}
	var from time.Duration
	for i := 0; i+perBlock <= len(jobs); i += perBlock {
		block := jobs[i : i+perBlock]
		var steps int64
		ms := make([]float64, len(block))
		for k, j := range block {
			steps += j.steps
			ms[k] = j.ms
		}
		to := block[len(block)-1].at
		stepsPerS = append(stepsPerS, float64(steps)/(to-from).Seconds())
		waitMS = append(waitMS, median(ms))
		from = to
	}
	return stepsPerS, waitMS
}

type jobStatus struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Error       string    `json:"error"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

type jobResult struct {
	State  string         `json:"state"`
	Report map[string]any `json:"report"`
}

// client is one closed-loop caller on one kept-alive connection.
type client struct {
	s    *serveServer
	http *http.Client
	rec  *recorder
	root int
	load *serveLoad
}

func newClient(s *serveServer, rec *recorder, root int, load *serveLoad) *client {
	return &client{s: s, rec: rec, root: root, load: load,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}}
}

// call makes one request inside a span and decodes a JSON body into out.
func (c *client) call(parent int, trace, method, path string, body []byte, out any) (int, error) {
	id := c.rec.begin(parent, trace, "service", method+" "+spanPath(path))
	defer c.rec.end(id)
	req, err := http.NewRequest(method, c.s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// spanPath replaces a job ID by {id} so spans of one kind share a name.
func spanPath(path string) string {
	if rest, ok := strings.CutPrefix(path, "/jobs/"); ok {
		if _, tail, ok := strings.Cut(rest, "/"); ok {
			return "/jobs/{id}/" + tail
		}
		return "/jobs/{id}"
	}
	return path
}

func (spec serveSpec) jobBody(idx int) []byte {
	b, _ := json.Marshal(map[string]any{ // cannot fail: plain values
		"graph": serveGraphName, "alg": "deepwalk", "biased": true, "length": spec.length,
		"walkers": spec.walkers, "nodes": ranks, "workers": workersPerRank,
		"seed": subSeed(spec.seed, "serve-job") + uint64(idx),
	})
	return b
}

// deltaBody is the k-th ingest batch: inserts only, so none can fail; half
// of them on the hubs, whose sampler tables are the most expensive to
// rebuild and the ones most walkers read.
func (spec serveSpec) deltaBody(k int) []byte {
	r := rng.New(subSeed(spec.seed, "serve-delta") + uint64(k))
	type delta struct {
		Src    graph.VertexID `json:"src"`
		Dst    graph.VertexID `json:"dst"`
		Weight float32        `json:"weight"`
	}
	edges := make([]delta, spec.batch)
	for i := range edges {
		src := graph.VertexID(r.Intn(spec.vertices))
		if i%2 == 0 {
			src = spec.hubs[r.Intn(len(spec.hubs))]
		}
		dst := graph.VertexID(r.Intn(spec.vertices - 1))
		if dst >= src {
			dst++
		}
		edges[i] = delta{Src: src, Dst: dst, Weight: float32(1 + 15*r.Float64())}
	}
	b, _ := json.Marshal(map[string]any{"edges": edges}) // cannot fail: plain values
	return b
}

// runJob submits job idx, polls it every millisecond until it is terminal,
// fetches the result and records the latencies. It returns the report.
func (c *client) runJob(spec serveSpec, idx int, record bool) map[string]any {
	trace := fmt.Sprintf("job-%d", idx)
	span := c.rec.begin(c.root, trace, "service", "job")
	defer c.rec.end(span)
	l := c.load
	l.try()

	var st jobStatus
	sent := time.Now()
	code, err := c.call(span, trace, "POST", "/jobs", spec.jobBody(idx), &st)
	rtt := time.Since(sent)
	if code == http.StatusTooManyRequests {
		l.mu.Lock()
		l.rejected429++
		l.mu.Unlock()
	}
	if err != nil || code != http.StatusAccepted {
		l.fail("job %d: POST /jobs: status %d, %v", idx, code, err)
		return nil
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(time.Millisecond)
		if code, err := c.call(span, trace, "GET", "/jobs/"+st.ID, nil, &st); err != nil || code != http.StatusOK {
			l.fail("job %d: GET /jobs/%s: status %d, %v", idx, st.ID, code, err)
			return nil
		}
	}
	if st.State != "done" {
		l.fail("job %d ended %s: %s", idx, st.State, st.Error)
		return nil
	}
	var res jobResult
	code, err = c.call(span, trace, "GET", "/jobs/"+st.ID+"/result", nil, &res)
	got := time.Now()
	if err != nil || code != http.StatusOK {
		l.fail("job %d: GET result: status %d, %v", idx, code, err)
		return nil
	}
	steps, _ := res.Report["steps"].(float64)
	if want := int64(spec.walkers) * int64(spec.length); int64(steps) != want {
		l.fail("job %d: %v steps, want %d", idx, steps, want)
		return nil
	}
	if record {
		l.mu.Lock()
		l.submitResultMS = append(l.submitResultMS, got.Sub(sent).Seconds()*1e3)
		l.submitRTTMS = append(l.submitRTTMS, rtt.Seconds()*1e3)
		l.queueWaitMS = append(l.queueWaitMS, st.StartedAt.Sub(st.SubmittedAt).Seconds()*1e3)
		l.jobRunMS = append(l.jobRunMS, st.FinishedAt.Sub(st.StartedAt).Seconds()*1e3)
		l.resultLagMS = append(l.resultLagMS, got.Sub(st.FinishedAt).Seconds()*1e3)
		l.steps += int64(steps)
		l.finished = append(l.finished, finishedJob{at: got.Sub(l.start), ms: got.Sub(sent).Seconds() * 1e3, steps: int64(steps)})
		l.mu.Unlock()
	}
	return res.Report
}

func (c *client) ingest(spec serveSpec, k int) {
	l := c.load
	l.try()
	sent := time.Now()
	code, err := c.call(c.root, fmt.Sprintf("ingest-%d", k), "POST", "/graphs/"+serveGraphName+"/edges", spec.deltaBody(k), nil)
	if err != nil || code != http.StatusOK {
		l.fail("ingest %d: status %d, %v", k, code, err)
		return
	}
	l.mu.Lock()
	l.ingestMS = append(l.ingestMS, time.Since(sent).Seconds()*1e3)
	l.mu.Unlock()
}

// drive runs the closed loop: `clients` callers, each submitting its next
// job only when the previous one's result is in hand, and posting one
// delta batch before every 4th job, until the measuring time is used and
// at least minJobs are done. firstJob keeps job seeds distinct from the
// warm-up's.
func (s *serveServer) drive(rec *recorder, root int, spec serveSpec, seconds float64, minJobs, firstJob int) *serveLoad {
	var nextJob, nextBatch, doneJobs atomic.Int64
	nextJob.Store(int64(firstJob))
	start := time.Now()
	load := &serveLoad{start: start}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s, rec, root, load)
			defer c.http.CloseIdleConnections()
			for mine := 0; time.Since(start).Seconds() < seconds || doneJobs.Load() < int64(minJobs); mine++ {
				if mine%4 == 3 {
					c.ingest(spec, int(nextBatch.Add(1)-1))
				}
				c.runJob(spec, int(nextJob.Add(1)-1), true)
				doneJobs.Add(1)
			}
		}()
	}
	wg.Wait()
	load.windowS = time.Since(start).Seconds()
	return load
}

// resubmitCheck submits one spec twice with nothing in between and wants
// identical reports, wall-clock fields aside.
func (s *serveServer) resubmitCheck(rec *recorder, root int, spec serveSpec, load *serveLoad, idx int) {
	c := newClient(s, rec, root, load)
	defer c.http.CloseIdleConnections()
	a, b := c.runJob(spec, idx, false), c.runJob(spec, idx, false)
	if a == nil || b == nil {
		return // already counted as failed
	}
	load.try()
	if stripClock(a); !reflect.DeepEqual(a, stripClock(b)) {
		load.fail("identical resubmission returned a different report: %v vs %v", a, b)
	}
}

// stripClock removes the report fields that depend on wall time.
func stripClock(report map[string]any) map[string]any {
	for k := range report {
		if strings.HasSuffix(k, "_seconds") || k == "steps_per_second" || k == "straggler_skew" {
			delete(report, k)
		}
	}
	return report
}

// scrapeCounter reads one counter from kkserve's /metrics page.
func (s *serveServer) scrapeCounter(name string) (float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// layerMetrics turns what the clients saw into the service and dyngraph
// rungs of the ladder.
func (l *serveLoad) layerMetrics(compactions float64) map[string]float64 {
	return map[string]float64{
		"service.submit_rtt_ms":        median(l.submitRTTMS),
		"service.queue_wait_p50_ms":    median(l.queueWaitMS),
		"service.queue_wait_p90_ms":    quantile(l.queueWaitMS, 0.9),
		"service.job_run_p50_ms":       median(l.jobRunMS),
		"service.result_lag_ms":        median(l.resultLagMS),
		"service.rejected_429":         float64(l.rejected429),
		"service.submit_result_p90_ms": quantile(l.submitResultMS, 0.9),
		"service.submit_result_p99_ms": quantile(l.submitResultMS, 0.99),
		"service.jobs_per_s":           float64(len(l.submitResultMS)) / l.windowS,
		"dyngraph.ingest_batch_p50_ms": median(l.ingestMS),
		"dyngraph.compactions":         compactions,
	}
}
