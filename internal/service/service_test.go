package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/gen"
	"knightking/internal/job"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// testService mounts a fresh service with one registered graph on an
// httptest server.
func testService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	g := gen.UniformDegree(200, 8, 7)
	if _, err := svc.Graphs.Register("uni200", g); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// doJSON issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// awaitState polls a job until it reaches a terminal state or the
// deadline passes, returning the final status.
func awaitState(t *testing.T, base, id string, deadline time.Duration) JobStatus {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var st JobStatus
		if code := doJSON(t, http.MethodGet, base+"/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %s after %v", id, st.State, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunFetchResult(t *testing.T) {
	_, ts := testService(t, Config{})
	spec := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "node2vec", Length: 12, P: 2, Q: 0.5}, Seed: 42, Walkers: 100}}

	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submission status incomplete: %+v", st)
	}

	final := awaitState(t, ts.URL, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job ended %s (err %q), want done", final.State, final.Error)
	}
	if final.StartedAt.IsZero() || final.FinishedAt.IsZero() {
		t.Fatalf("terminal status missing timestamps: %+v", final)
	}

	var res JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	if res.Report.Steps == 0 || res.Report.Algorithm != "node2vec" {
		t.Fatalf("implausible report: %+v", res.Report)
	}
	if res.Report.Walkers != 100 || res.Report.Vertices != 200 {
		t.Fatalf("report shape wrong: walkers=%d vertices=%d", res.Report.Walkers, res.Report.Vertices)
	}
	if res.WalkLengths.Max == 0 {
		t.Fatalf("walk-length digest empty: %+v", res.WalkLengths)
	}
}

func TestIdenticalSubmissionsReturnIdenticalStatistics(t *testing.T) {
	_, ts := testService(t, Config{Workers: 2})
	spec := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 20}, Seed: 99, Walkers: 150}}

	ids := make([]string, 2)
	for i := range ids {
		var st JobStatus
		if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
			t.Fatalf("POST /jobs #%d: status %d", i, code)
		}
		ids[i] = st.ID
	}
	results := make([]JobResult, 2)
	for i, id := range ids {
		if st := awaitState(t, ts.URL, id, 30*time.Second); st.State != StateDone {
			t.Fatalf("job %s ended %s (err %q)", id, st.State, st.Error)
		}
		if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+id+"/result", nil, &results[i]); code != http.StatusOK {
			t.Fatalf("GET result %s: status %d", id, code)
		}
	}
	// The engine is deterministic in (graph, seed, params): everything but
	// wall-clock fields must match bit-for-bit.
	a, b := results[0].Report, results[1].Report
	a.DurationSeconds, b.DurationSeconds = 0, 0
	a.SetupSeconds, b.SetupSeconds = 0, 0
	a.ExchangeSeconds, b.ExchangeSeconds = 0, 0
	a.StepsPerSecond, b.StepsPerSecond = 0, 0
	a.CheckpointSeconds, b.CheckpointSeconds = 0, 0
	a.RestoreSeconds, b.RestoreSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical submissions diverged:\n%+v\n%+v", a, b)
	}
	if results[0].WalkLengths != results[1].WalkLengths {
		t.Fatalf("walk lengths diverged: %+v vs %+v", results[0].WalkLengths, results[1].WalkLengths)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	// A long walk over many walkers: plenty of supersteps to cancel into.
	spec := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 100000}, Seed: 7, Walkers: 200}}
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}

	var del map[string]string
	if code := doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil, &del); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", code)
	}
	start := time.Now()
	final := awaitState(t, ts.URL, st.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
	// The issue's contract: cancellation lands within 2 seconds.
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", waited)
	}
	// No result for a cancelled job: 409 with the status in the body.
	var body JobStatus
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+st.ID+"/result", nil, &body); code != http.StatusConflict {
		t.Fatalf("GET result of cancelled job: status %d, want 409", code)
	}
	if body.State != StateCancelled {
		t.Fatalf("409 body state %s, want cancelled", body.State)
	}
}

func TestCancelQueuedJobAndDeleteRecord(t *testing.T) {
	svc, ts := testService(t, Config{Workers: 1, QueueDepth: 8})
	// Occupy the single worker, then queue a second job behind it.
	blocker := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 100000}, Seed: 1, Walkers: 200}}
	var bst JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", blocker, &bst); code != http.StatusAccepted {
		t.Fatalf("POST blocker: status %d", code)
	}
	queued := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 10}, Seed: 2, Walkers: 10}}
	var qst JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", queued, &qst); code != http.StatusAccepted {
		t.Fatalf("POST queued: status %d", code)
	}

	// Cancelling the queued job is immediate — no engine run to wind down.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+qst.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d", code)
	}
	var st JobStatus
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+qst.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("GET cancelled: status %d", code)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state %s after DELETE, want cancelled", st.State)
	}

	// A second DELETE on the now-terminal job removes the record.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+qst.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE terminal: status %d, want 204", code)
	}
	if _, ok := svc.sched.Get(qst.ID); ok {
		t.Fatal("record still present after terminal DELETE")
	}

	// Unblock the worker for cleanup.
	doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+bst.ID, nil, nil)
}

func TestQueueOverflowReturns429(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1, QueueDepth: 1})
	long := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 100000}, Seed: 3, Walkers: 200}}

	// First fills the worker, second fills the queue; keep submitting
	// until the depth limit bites (the worker may dequeue in between).
	var rejected bool
	var firstID string
	for i := 0; i < 8; i++ {
		var st JobStatus
		code := doJSON(t, http.MethodPost, ts.URL+"/jobs", long, &st)
		switch code {
		case http.StatusAccepted:
			if firstID == "" {
				firstID = st.ID
			}
		case http.StatusTooManyRequests:
			rejected = true
		default:
			t.Fatalf("POST /jobs: unexpected status %d", code)
		}
		if rejected {
			break
		}
	}
	if !rejected {
		t.Fatal("queue depth 1 never produced a 429")
	}
	// Rejected submissions leave no record behind.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /jobs: status %d", code)
	}
	for _, st := range list.Jobs {
		doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil, nil)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testService(t, Config{})
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"unknown graph", JobSpec{Graph: "nope", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk"}}}},
		{"unknown alg", JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "pagerank"}}}},
		{"negative length", JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: -1}}}},
		{"ppr pt out of range", JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "ppr", Pt: 1.5}}}},
		{"node2vec negative p", JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "node2vec", P: -1}}}},
		{"bad metapath scheme", JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "metapath", Schemes: "a,b"}}}},
		{"biased on unweighted graph", JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Biased: true}}}},
	}
	for _, tc := range cases {
		var body map[string]string
		if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", tc.spec, &body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		} else if body["error"] == "" {
			t.Errorf("%s: 400 without error body", tc.name)
		}
	}
}

// TestSubmitFillsWalkDefaults: a POST /jobs body that omits node2vec's p
// and q walks with the defaults kkwalk and kkcoord use (2 and 0.5), as
// the stored, normalized spec shows.
func TestSubmitFillsWalkDefaults(t *testing.T) {
	svc, ts := testService(t, Config{})
	body := json.RawMessage(`{"graph":"uni200","alg":"node2vec","length":5,"seed":1,"walkers":20}`)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	j, ok := svc.sched.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	if want := (alg.Spec{Alg: "node2vec", Length: 5, P: 2, Q: 0.5}); j.Spec.Spec.Spec != want {
		t.Fatalf("stored spec %+v, want %+v", j.Spec.Spec.Spec, want)
	}
}

func TestGraphEndpointsAndRegistryConflict(t *testing.T) {
	svc, ts := testService(t, Config{})

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/graphs", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /graphs: status %d", code)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "uni200" {
		t.Fatalf("graph list wrong: %+v", list.Graphs)
	}
	if len(list.Graphs[0].Fingerprint) != 16 {
		t.Fatalf("fingerprint not 16 hex digits: %q", list.Graphs[0].Fingerprint)
	}

	// Same content re-registered under the same name: idempotent.
	if _, err := svc.Graphs.Register("uni200", gen.UniformDegree(200, 8, 7)); err != nil {
		t.Fatalf("idempotent re-register failed: %v", err)
	}
	// Different content under the same name: rejected.
	if _, err := svc.Graphs.Register("uni200", gen.Ring(10, 0)); err == nil {
		t.Fatal("registry accepted different content under a taken name")
	}

	// POST /graphs loads an edge list from the server's filesystem.
	dir := t.TempDir()
	path := dir + "/tiny.txt"
	var sb strings.Builder
	for v := 0; v < 6; v++ {
		fmt.Fprintf(&sb, "%d %d\n", v, (v+1)%6)
	}
	if err := writeFile(path, sb.String()); err != nil {
		t.Fatalf("write edge list: %v", err)
	}
	var info GraphInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs",
		loadGraphRequest{Name: "tiny", Path: path}, &info); code != http.StatusCreated {
		t.Fatalf("POST /graphs: status %d", code)
	}
	if info.Vertices != 6 || info.Edges != 6 {
		t.Fatalf("loaded graph shape wrong: %+v", info)
	}
	// Conflicting reload under the same name: 409.
	path2 := dir + "/other.txt"
	if err := writeFile(path2, "0 1\n1 0\n"); err != nil {
		t.Fatalf("write edge list: %v", err)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs",
		loadGraphRequest{Name: "tiny", Path: path2}, nil); code != http.StatusConflict {
		t.Fatalf("conflicting POST /graphs: status %d, want 409", code)
	}
}

func TestMetricsAndStatusz(t *testing.T) {
	_, ts := testService(t, Config{})
	spec := JobSpec{Graph: "uni200", Spec: job.Spec{Spec: alg.Spec{Alg: "ppr"}, Seed: 5, Walkers: 50}}
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", code)
	}
	if final := awaitState(t, ts.URL, st.ID, 30*time.Second); final.State != StateDone {
		t.Fatalf("job ended %s", final.State)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	page := buf.String()
	for _, want := range []string{
		"kk_serve_jobs_submitted_total 1",
		"kk_serve_jobs_completed_total 1",
		"kk_serve_graphs 1",
		"kk_steps_total",
		"kk_terminations_total 50",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q\n%s", want, page)
		}
	}

	var status struct {
		Jobs map[string]int `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/statusz", nil, &status); code != http.StatusOK {
		t.Fatalf("GET /statusz: status %d", code)
	}
	if status.Jobs["done"] != 1 {
		t.Fatalf("statusz done count %d, want 1", status.Jobs["done"])
	}
}

func TestQueuedStatusOmitsZeroTimestamps(t *testing.T) {
	// The JobStatus JSON contract: started_at/finished_at are absent (not
	// zero-valued) until the job reaches those lifecycle points.
	raw, err := json.Marshal(JobStatus{ID: "job-000001", State: StateQueued, SubmittedAt: time.Now()})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(raw)
	if strings.Contains(s, "started_at") || strings.Contains(s, "finished_at") {
		t.Fatalf("queued status leaks zero timestamps: %s", s)
	}
	if !strings.Contains(s, "submitted_at") {
		t.Fatalf("queued status missing submitted_at: %s", s)
	}
}
