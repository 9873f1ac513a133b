package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/dyngraph"
	"knightking/internal/gen"
	"knightking/internal/graph"
	"knightking/internal/job"
)

// weightedService mounts a service with one weighted registered graph.
func weightedService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	g := gen.WithUniformWeights(gen.UniformDegree(300, 6, 21), 1, 5, 22)
	if _, err := svc.Graphs.Register("w300", g); err != nil {
		t.Fatalf("register: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func graphInfo(t *testing.T, base, name string) GraphInfo {
	t.Helper()
	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, http.MethodGet, base+"/graphs", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /graphs: status %d", code)
	}
	for _, gi := range list.Graphs {
		if gi.Name == name {
			return gi
		}
	}
	t.Fatalf("graph %q not listed", name)
	return GraphInfo{}
}

func TestIngestAndCompactEndpoints(t *testing.T) {
	_, ts := testService(t, Config{})

	info := graphInfo(t, ts.URL, "uni200")
	if info.Epoch != 0 || info.EpochFingerprint != info.Fingerprint {
		t.Fatalf("fresh graph not at epoch 0 with base fingerprint: %+v", info)
	}

	// A valid batch publishes epoch 1. Its response identifies the epoch
	// by the O(batch) log fingerprint only: the content hash of an ingest
	// epoch would cost a full-graph pass.
	var raw json.RawMessage
	batch := ingestRequest{Edges: []dyngraph.Delta{
		{Src: 0, Dst: 100},
		{Src: 1, Dst: 101},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/uni200/edges", batch, &raw); code != http.StatusOK {
		t.Fatalf("POST edges: status %d", code)
	}
	var ir ingestResponse
	var fields struct {
		Graph map[string]any `json:"graph"`
	}
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 2 || ir.Graph.Epoch != 1 {
		t.Fatalf("ingest response wrong: %+v", ir)
	}
	if _, ok := fields.Graph["epoch_fingerprint"]; ok {
		t.Fatalf("ingest response carries epoch_fingerprint: %s", raw)
	}
	if ir.Graph.EpochLogFingerprint == "" || ir.Graph.EpochLogFingerprint == info.EpochLogFingerprint {
		t.Fatalf("ingest response log fingerprint %q, want a new non-empty one (epoch 0: %q)",
			ir.Graph.EpochLogFingerprint, info.EpochLogFingerprint)
	}

	// An invalid batch is rejected atomically: 400, epoch unchanged.
	bad := ingestRequest{Edges: []dyngraph.Delta{{Src: 10_000, Dst: 0}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/uni200/edges", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("bad batch: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/uni200/edges", ingestRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/nope/edges", batch, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph ingest: status %d, want 404", code)
	}
	if got := graphInfo(t, ts.URL, "uni200"); got.Epoch != 1 {
		t.Fatalf("rejected batches moved the epoch: %+v", got)
	}

	// Compaction folds the overlay and publishes epoch 2 with no deltas.
	var after GraphInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/uni200/compact", nil, &after); code != http.StatusOK {
		t.Fatalf("POST compact: status %d", code)
	}
	if after.Epoch != 2 || after.DeltaVertices != 0 || after.DeltaEdges != 0 {
		t.Fatalf("post-compaction info wrong: %+v", after)
	}
	// Compaction is the explicit way to obtain the live content's canonical
	// hash: it must equal the hash of the same edges built from scratch.
	base := gen.UniformDegree(200, 8, 7)
	b := graph.NewBuilder(base.NumVertices()).SetDedup(true)
	for v := 0; v < base.NumVertices(); v++ {
		for _, d := range base.Neighbors(graph.VertexID(v)) {
			b.AddEdge(graph.VertexID(v), d)
		}
	}
	for _, d := range batch.Edges {
		b.AddEdge(d.Src, d.Dst)
	}
	if want := fmt.Sprintf("%016x", graph.Fingerprint(b.Build())); after.EpochFingerprint != want {
		t.Fatalf("compacted epoch_fingerprint %q, want the rebuilt graph's %q", after.EpochFingerprint, want)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/nope/compact", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph compact: status %d, want 404", code)
	}

	// The new families show up on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	page := buf.String()
	for _, want := range []string{
		"kk_serve_ingest_batches_total 1",
		"kk_serve_ingest_edges_total 2",
		"kk_serve_ingest_rejected_total 1",
		"kk_serve_compactions_total 1",
		"kk_serve_pending_deltas 0",
		`kk_serve_graph_epoch{graph="uni200"} 2`,
		`kk_serve_graph_delta_edges{graph="uni200"} 0`,
		"kk_serve_ingest_apply_us_count 1",
		"kk_serve_compact_us_count 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobPinsAdmissionEpoch is the epoch-pinning contract end to end: a
// job queued before an ingest runs against its admission epoch and
// reproduces the pre-ingest result bit-for-bit, while a job submitted
// after the ingest observes the new epoch.
func TestJobPinsAdmissionEpoch(t *testing.T) {
	_, ts := weightedService(t, Config{Workers: 1})
	spec := JobSpec{Graph: "w300", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Biased: true, Length: 25}, Seed: 77, Walkers: 200}}

	// Control: the spec's result on epoch 0, with nothing else in flight.
	var ctrl JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &ctrl); code != http.StatusAccepted {
		t.Fatalf("POST control: status %d", code)
	}
	if st := awaitState(t, ts.URL, ctrl.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("control ended %s (err %q)", st.State, st.Error)
	}
	var ctrlRes JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+ctrl.ID+"/result", nil, &ctrlRes); code != http.StatusOK {
		t.Fatalf("GET control result: status %d", code)
	}

	// Occupy the single worker, queue the target behind it, then ingest.
	blocker := JobSpec{Graph: "w300", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 100000}, Seed: 1, Walkers: 300}}
	var bst JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", blocker, &bst); code != http.StatusAccepted {
		t.Fatalf("POST blocker: status %d", code)
	}
	var target JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &target); code != http.StatusAccepted {
		t.Fatalf("POST target: status %d", code)
	}
	if target.Epoch != 0 {
		t.Fatalf("target admitted on epoch %d, want 0", target.Epoch)
	}

	batch := ingestRequest{Edges: []dyngraph.Delta{
		{Src: 5, Dst: 250, Weight: 9},
		{Src: 6, Dst: 251, Weight: 9},
		{Src: 7, Dst: 252, Weight: 9},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/w300/edges", batch, nil); code != http.StatusOK {
		t.Fatalf("POST edges: status %d", code)
	}

	// A job submitted now pins the new epoch.
	var post JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &post); code != http.StatusAccepted {
		t.Fatalf("POST post-ingest job: status %d", code)
	}
	if post.Epoch != 1 {
		t.Fatalf("post-ingest job admitted on epoch %d, want 1", post.Epoch)
	}
	if post.EpochLogFingerprint == target.EpochLogFingerprint {
		t.Fatal("distinct epochs report the same log fingerprint")
	}

	// Release the worker; the target must reproduce the control exactly.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/jobs/"+bst.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE blocker: status %d", code)
	}
	final := awaitState(t, ts.URL, target.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("target ended %s (err %q)", final.State, final.Error)
	}
	if final.EpochID != target.EpochID {
		t.Fatalf("target reports epoch %+v, want its admission epoch %+v", final.EpochID, target.EpochID)
	}
	var targetRes JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+target.ID+"/result", nil, &targetRes); code != http.StatusOK {
		t.Fatalf("GET target result: status %d", code)
	}
	a, b := ctrlRes.Report, targetRes.Report
	a.DurationSeconds, b.DurationSeconds = 0, 0
	a.SetupSeconds, b.SetupSeconds = 0, 0
	a.ExchangeSeconds, b.ExchangeSeconds = 0, 0
	a.StepsPerSecond, b.StepsPerSecond = 0, 0
	a.CheckpointSeconds, b.CheckpointSeconds = 0, 0
	a.RestoreSeconds, b.RestoreSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mid-queue ingest changed a pinned job's result:\n%+v\n%+v", a, b)
	}
	if ctrlRes.WalkLengths != targetRes.WalkLengths {
		t.Fatalf("walk lengths diverged: %+v vs %+v", ctrlRes.WalkLengths, targetRes.WalkLengths)
	}

	// The post-ingest job runs on the bigger view: its report counts the
	// ingested edges.
	if st := awaitState(t, ts.URL, post.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("post-ingest job ended %s (err %q)", st.State, st.Error)
	}
	var postRes JobResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+post.ID+"/result", nil, &postRes); code != http.StatusOK {
		t.Fatalf("GET post-ingest result: status %d", code)
	}
	if want := ctrlRes.Report.Edges + 3; postRes.Report.Edges != want {
		t.Fatalf("post-ingest report counts %d edges, want %d (pinned epoch view)", postRes.Report.Edges, want)
	}
}

// TestAutoCompactionOverHTTP wires Config.CompactAfter through to the
// delta layer: enough ingested deltas trigger a compaction without any
// explicit POST /compact.
func TestAutoCompactionOverHTTP(t *testing.T) {
	_, ts := weightedService(t, Config{CompactAfter: 4})
	batch := ingestRequest{Edges: []dyngraph.Delta{
		{Src: 1, Dst: 200, Weight: 2},
		{Src: 2, Dst: 201, Weight: 2},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/w300/edges", batch, nil); code != http.StatusOK {
		t.Fatalf("POST edges #1: status %d", code)
	}
	if got := graphInfo(t, ts.URL, "w300"); got.Epoch != 1 || got.DeltaEdges != 2 {
		t.Fatalf("after 2 deltas: %+v, want overlay epoch 1", got)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/graphs/w300/edges", batch, nil); code != http.StatusOK {
		t.Fatalf("POST edges #2: status %d", code)
	}
	// The second batch crossed the threshold: epoch 2 upserts, epoch 3
	// auto-compacts (the second batch re-weights existing overlay edges,
	// so the net delta stays 2 and then folds away).
	got := graphInfo(t, ts.URL, "w300")
	if got.Epoch != 3 || got.DeltaEdges != 0 || got.DeltaVertices != 0 {
		t.Fatalf("auto-compaction did not run: %+v", got)
	}
}

// TestTerminalJobsReleaseTheirEpoch: however a job ends — done, failed,
// cancelled while running or while queued, or drained by Shutdown — it
// drops its pinned epoch, so retained records do not keep old base CSRs
// and sampler tables alive, and its status still reports the identity of
// the epoch it was admitted on.
func TestTerminalJobsReleaseTheirEpoch(t *testing.T) {
	// A checkpoint root that is a regular file makes checkpointing jobs
	// fail at engine set-up.
	notDir := filepath.Join(t.TempDir(), "file")
	if err := writeFile(notDir, "x"); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, CheckpointRoot: notDir})
	if _, err := svc.Graphs.Register("w300", gen.WithUniformWeights(gen.UniformDegree(300, 6, 21), 1, 5, 22)); err != nil {
		t.Fatal(err)
	}
	dyn, _ := svc.Graphs.Get("w300")
	ingest := func(dst graph.VertexID) {
		t.Helper()
		if _, err := dyn.Apply([]dyngraph.Delta{{Src: 5, Dst: dst, Weight: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(250) // admit every job on an ingest epoch

	short := JobSpec{Graph: "w300", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Biased: true, Length: 10}, Seed: 1, Walkers: 50}}
	long := JobSpec{Graph: "w300", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 100000}, Seed: 2, Walkers: 300}}
	failing := short
	failing.CheckpointEvery = 1
	admitted := map[*Job]EpochID{}
	submit := func(spec JobSpec) *Job {
		t.Helper()
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		admitted[j] = j.Status().EpochID
		return j
	}
	await := func(j *Job, done func(JobState) bool) {
		t.Helper()
		for stop := time.Now().Add(30 * time.Second); !done(j.Status().State); time.Sleep(time.Millisecond) {
			if time.Now().After(stop) {
				t.Fatalf("job %s stuck in %s", j.ID, j.Status().State)
			}
		}
	}
	running := func(s JobState) bool { return s == StateRunning }

	jobs := map[string]*Job{}
	jobs["done"] = submit(short)
	await(jobs["done"], JobState.Terminal)
	jobs["failed"] = submit(failing)
	await(jobs["failed"], JobState.Terminal)
	jobs["cancelled-running"] = submit(long)
	await(jobs["cancelled-running"], running)
	if _, err := svc.sched.Cancel(jobs["cancelled-running"].ID); err != nil {
		t.Fatal(err)
	}
	await(jobs["cancelled-running"], JobState.Terminal)
	jobs["shutdown-running"] = submit(long)
	await(jobs["shutdown-running"], running)
	jobs["cancelled-queued"] = submit(short)
	if _, err := svc.sched.Cancel(jobs["cancelled-queued"].ID); err != nil {
		t.Fatal(err)
	}
	jobs["shutdown-queued"] = submit(short)
	ingest(251) // the graph moves on; statuses must keep the admission epoch
	svc.Close()

	want := map[string]JobState{
		"done": StateDone, "failed": StateFailed,
		"cancelled-running": StateCancelled, "cancelled-queued": StateCancelled,
		"shutdown-running": StateCancelled, "shutdown-queued": StateCancelled,
	}
	for name, j := range jobs {
		st := j.Status()
		j.mu.Lock()
		pinned := j.epoch != nil
		j.mu.Unlock()
		if st.State != want[name] {
			t.Errorf("%s: state %s (err %q), want %s", name, st.State, st.Error, want[name])
		}
		if pinned {
			t.Errorf("%s: terminal job still pins its epoch", name)
		}
		if st.EpochID != admitted[j] || st.Epoch != 1 || st.EpochLogFingerprint == "" || st.EpochFingerprint != "" {
			t.Errorf("%s: status reports epoch %+v, want the admission epoch %+v", name, st.EpochID, admitted[j])
		}
	}
}
