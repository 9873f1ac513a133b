package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/gen"
	"knightking/internal/job"
)

// getRaw fetches a URL returning status, content type, and raw body.
func getRaw(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestTracedJobEndToEnd submits a traced job over HTTP, fetches its
// Perfetto trace, and validates the causal structure the UI relies on:
// job and walker process tracks, per-rank superstep → phase span nesting
// (matched B/E pairs, monotonic timestamps), and at least one sampled
// walker journey carrying rejection trial counts. Also checks the report
// gained a critical-path attribution and that non-traced jobs 404.
func TestTracedJobEndToEnd(t *testing.T) {
	_, ts := testService(t, Config{})
	spec := JobSpec{
		Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "node2vec", Length: 16, P: 2, Q: 0.5},
			Seed: 3, Walkers: 120}, Nodes: 2,
		Trace: true, TraceSample: 8,
	}
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	if !st.Trace {
		t.Errorf("job status does not report trace: %+v", st)
	}
	final := awaitState(t, ts.URL, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job ended %s (err %q)", final.State, final.Error)
	}

	code, ctype, body := getRaw(t, ts.URL+"/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d body %s", code, body)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("trace content type = %q", ctype)
	}

	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			Job string `json:"job"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if !strings.Contains(doc.OtherData.Job, st.ID) {
		t.Errorf("trace job label %q does not name job %s", doc.OtherData.Job, st.ID)
	}

	type track struct{ pid, tid int }
	stacks := map[track][]string{}
	last := -1.0
	supersteps, journeys, trialed := 0, 0, 0
	sawRankThread, sawWalkerProcess := false, false
	for i, ev := range doc.TraceEvents {
		if ev.TS < last {
			t.Fatalf("event %d ts regressed: %v < %v", i, ev.TS, last)
		}
		last = ev.TS
		k := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
			if strings.HasPrefix(ev.Name, "thread_name") && strings.Contains(string(ev.Args), `"rank `) {
				sawRankThread = true
			}
			if strings.Contains(string(ev.Args), "sampled walkers") {
				sawWalkerProcess = true
			}
		case "B":
			stacks[k] = append(stacks[k], ev.Name)
			if strings.HasPrefix(ev.Name, "superstep ") {
				supersteps++
				// A superstep span must open directly inside the run span.
				if d := len(stacks[k]); d != 2 {
					t.Fatalf("event %d: superstep at stack depth %d, want 2 (run > superstep)", i, d)
				}
			}
			// Phase spans live on the rank tracks (even tids); "exchange"
			// also names the transport track's top-level span (odd tids).
			if k.pid == 1 && k.tid%2 == 0 &&
				(ev.Name == "compute" || ev.Name == "exchange" || ev.Name == "barrier" || ev.Name == "checkpoint") {
				if d := len(stacks[k]); d != 3 {
					t.Fatalf("event %d: phase %q at stack depth %d, want 3 (run > superstep > phase)", i, ev.Name, d)
				}
			}
		case "E":
			st := stacks[k]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("event %d: unmatched E %q on %+v (stack %v)", i, ev.Name, k, st)
			}
			stacks[k] = st[:len(st)-1]
		case "i":
			if ev.Pid == 2 {
				journeys++
				var args struct {
					Trials int64 `json:"trials"`
				}
				json.Unmarshal(ev.Args, &args)
				if ev.Name == "step" && args.Trials >= 1 {
					trialed++
				}
			}
		}
	}
	for k, st := range stacks {
		if len(st) != 0 {
			t.Errorf("track %+v left spans open: %v", k, st)
		}
	}
	if supersteps == 0 {
		t.Error("trace has no superstep spans")
	}
	if !sawRankThread || !sawWalkerProcess {
		t.Errorf("trace missing tracks: rank thread %v, walker process %v", sawRankThread, sawWalkerProcess)
	}
	if journeys == 0 {
		t.Error("trace has no walker journey instants")
	}
	if trialed == 0 {
		t.Error("no journey step carries a trial count")
	}

	// The retained report gained the critical-path attribution.
	var res JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	total := 0
	for _, gate := range res.Report.CriticalPath {
		total += gate.Supersteps
	}
	if total != res.Report.Supersteps {
		t.Errorf("critical path attributes %d supersteps, report has %d: %+v",
			total, res.Report.Supersteps, res.Report.CriticalPath)
	}
}

// TestTraceEndpointStates pins the non-200 paths: unknown job, job not
// submitted with tracing, and bad trace_sample specs.
func TestTraceEndpointStates(t *testing.T) {
	_, ts := testService(t, Config{})

	if code, _, _ := getRaw(t, ts.URL+"/jobs/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", code)
	}

	spec := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 4}, Seed: 1, Walkers: 20}}
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	awaitState(t, ts.URL, st.ID, 30*time.Second)
	code, _, body := getRaw(t, ts.URL+"/jobs/"+st.ID+"/trace")
	if code != http.StatusNotFound || !strings.Contains(string(body), "trace") {
		t.Errorf("untraced job trace: status %d body %s", code, body)
	}

	bad := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk"}, Seed: 1}, Trace: true, TraceSample: -1}
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", bad, nil); code != http.StatusBadRequest {
		t.Errorf("negative trace_sample: status %d, want 400", code)
	}
}

// TestServeMetricsTraceSatellites pins the new /metrics families: the
// queue-wait histogram and the per-state job gauge.
func TestServeMetricsTraceSatellites(t *testing.T) {
	_, ts := testService(t, Config{})
	spec := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 4}, Seed: 9, Walkers: 30}}
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	awaitState(t, ts.URL, st.ID, 30*time.Second)

	code, _, body := getRaw(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	page := string(body)
	if !strings.Contains(page, "kk_job_queue_wait_nanos_count 1") {
		t.Errorf("/metrics missing queue wait observation:\n%s", page)
	}
	if !strings.Contains(page, `kk_serve_jobs{state="done"} 1`) {
		t.Errorf("/metrics missing per-state job gauge:\n%s", page)
	}
	for _, state := range []string{"queued", "running", "failed", "cancelled"} {
		if !strings.Contains(page, `kk_serve_jobs{state="`+state+`"}`) {
			t.Errorf("/metrics missing serve_jobs state %q", state)
		}
	}
}

// TestServiceCloseDrainsHTTP pins kkserve's graceful shutdown: a request
// in flight when Close begins completes instead of seeing a reset.
func TestServiceCloseDrainsHTTP(t *testing.T) {
	svc := New(Config{Addr: "127.0.0.1:0"})
	g := gen.UniformDegree(50, 4, 2)
	if _, err := svc.Graphs.Register("g", g); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + svc.Addr()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(150 * time.Millisecond)

	start := time.Now()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if code := <-done; code != http.StatusOK {
		t.Errorf("in-flight profile status = %d, want 200", code)
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Errorf("Close returned after %v; it should have drained the 1s profile", waited)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after Close")
	}
}
