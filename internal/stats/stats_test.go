package stats

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.EdgeProbEvals.Add(10)
	c.Steps.Add(4)
	c.Trials.Add(6)
	s := c.Snapshot()
	if s.EdgeProbEvals != 10 || s.Steps != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := s.EdgesPerStep(); got != 2.5 {
		t.Fatalf("EdgesPerStep = %v", got)
	}
	if got := s.TrialsPerStep(); got != 1.5 {
		t.Fatalf("TrialsPerStep = %v", got)
	}
}

func TestCountersAdd(t *testing.T) {
	var c Counters
	c.Steps.Add(3)
	c.Add(Snapshot{Steps: 10, Queries: 2, Checkpoints: 1, CheckpointBytes: 64, RestoreNanos: 7})
	s := c.Snapshot()
	if s.Steps != 13 || s.Queries != 2 || s.Checkpoints != 1 || s.CheckpointBytes != 64 || s.RestoreNanos != 7 {
		t.Fatalf("after Add: %+v", s)
	}
}

func TestHistogramStateRoundTrip(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	st := h.State()
	if st.Count != 3 || st.Sum != 7 || st.Max != 3 {
		t.Fatalf("state = %+v", st)
	}

	h2 := NewHistogram(8)
	h2.Observe(5)
	if err := h2.AddState(st); err != nil {
		t.Fatal(err)
	}
	if st2 := h2.State(); st2.Count != 4 || h2.Max() != 5 || st2.Buckets[3] != 2 {
		t.Fatalf("after AddState: %+v", st2)
	}
	if got := h2.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}

	if err := NewHistogram(4).AddState(st); err == nil {
		t.Fatal("AddState accepted mismatched bucket counts")
	}
}

func TestEdgesPerStepZeroSteps(t *testing.T) {
	var s Snapshot
	if s.EdgesPerStep() != 0 || s.TrialsPerStep() != 0 {
		t.Fatal("zero-step ratios should be 0")
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Steps.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Steps.Load(); got != 8000 {
		t.Fatalf("Steps = %d, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int64{0, 1, 1, 5, 9, 50, -3} {
		h.Observe(v)
	}
	st := h.State()
	if st.Count != 7 {
		t.Fatalf("count = %d", st.Count)
	}
	if h.Max() != 50 {
		t.Fatalf("max = %d", h.Max())
	}
	if st.Buckets[1] != 2 {
		t.Fatalf("bucket 1 = %d", st.Buckets[1])
	}
	if st.Buckets[10] != 1 { // overflow
		t.Fatalf("overflow bucket = %d", st.Buckets[10])
	}
	if st.Buckets[0] != 2 { // 0 and clamped -3
		t.Fatalf("bucket 0 = %d", st.Buckets[0])
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(2)
	h.Observe(4)
	if h.Mean() != 3 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0) did not panic")
		}
	}()
	NewHistogram(0)
}

func TestTableWrite(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("deepwalk", 1.2345)
	tab.AddRow("ppr", 250*time.Millisecond)
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "deepwalk") || !strings.Contains(out, "1.234") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow(1, 2)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}
