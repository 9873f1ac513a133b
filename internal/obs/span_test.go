package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"knightking/internal/core"
)

// TestSpanJSONLSchemaVersion pins the -spans JSONL encoding: every line
// carries the schema version stamped by the registry (the engine leaves
// span.V zero), and the full byte encoding of a known span is golden —
// any field rename, reorder, or version bump must be intentional.
func TestSpanJSONLSchemaVersion(t *testing.T) {
	reg := NewRegistry(nil)
	var buf bytes.Buffer
	reg.SetSpanWriter(&buf)

	reg.OnSuperstep(core.SuperstepSpan{
		Rank: 1, Iteration: 3, LightMode: true,
		LocalWalkers: 5, GlobalWalkers: 12,
		RecvMessages: 7, RecvBytes: 420,
		ComputeNanos: 1000, ExchangeNanos: 200, BarrierNanos: 30, CheckpointNanos: 4,
		CheckpointBytes: 64, GatherNanos: 600, MoveNanos: 300, UpdateNanos: 100,
	})
	reg.OnSuperstep(core.SuperstepSpan{Rank: 0, Iteration: 3})

	want := `{"v":3,"rank":1,"superstep":3,"light":true,"local_walkers":5,"global_walkers":12,"recv_msgs":7,"recv_bytes":420,"compute_ns":1000,"exchange_ns":200,"barrier_ns":30,"checkpoint_ns":4,"checkpoint_bytes":64,"gather_ns":600,"move_ns":300,"update_ns":100}` + "\n" +
		`{"v":3,"rank":0,"superstep":3,"light":false,"local_walkers":0,"global_walkers":0,"recv_msgs":0,"recv_bytes":0,"compute_ns":0,"exchange_ns":0,"barrier_ns":0,"checkpoint_ns":0}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("span JSONL encoding diverged:\n got %q\nwant %q", got, want)
	}

	// Every stream line parses and reports the current schema version;
	// the in-memory span log is stamped identically.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v", err)
		}
		if v, _ := m["v"].(float64); int(v) != SpanSchemaVersion {
			t.Errorf("line v = %v, want %d", m["v"], SpanSchemaVersion)
		}
	}
	for _, sp := range reg.Spans() {
		if sp.V != SpanSchemaVersion {
			t.Errorf("retained span v = %d, want %d", sp.V, SpanSchemaVersion)
		}
	}
}
