package coord

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"knightking/internal/alg"
	"knightking/internal/job"
)

// writeTestGraph writes a small ring graph and returns its path.
func writeTestGraph(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ring.txt")
	var b []byte
	for v := 0; v < n; v++ {
		b = append(b, fmt.Sprintf("%d %d\n%d %d\n", v, (v+1)%n, (v+1)%n, v)...)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fakeWorker speaks the control protocol without running an engine. Its
// behavior on each start barrier is scripted per attempt: "done" reports a
// canned result, "die" slams the connection shut (a SIGKILL stand-in),
// "silent" keeps the connection open but stops heartbeating and replying.
type fakeWorker struct {
	t      *testing.T
	name   string
	behave func(attempt, rank int) string

	mu     sync.Mutex
	att    int
	rank   int
	silent bool
}

func (f *fakeWorker) heartbeat(cc *controlConn, quit chan struct{}) {
	tick := time.NewTicker(30 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-quit:
			return
		case <-tick.C:
			f.mu.Lock()
			att, silent := f.att, f.silent
			f.mu.Unlock()
			if att > 0 && !silent {
				if err := cc.write(Msg{Type: MsgHeartbeat, Attempt: att}); err != nil {
					return
				}
			}
		}
	}
}

func (f *fakeWorker) run(addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		f.t.Errorf("%s: dial: %v", f.name, err)
		return
	}
	defer conn.Close()
	cc := newControlConn(conn)
	if err := cc.write(Msg{Type: MsgHello, V: ProtoVersion, DataAddr: "127.0.0.1:1"}); err != nil {
		f.t.Errorf("%s: hello: %v", f.name, err)
		return
	}
	quit := make(chan struct{})
	defer close(quit)
	go f.heartbeat(cc, quit) //kk:goro-ok joined out of band: heartbeat selects on quit, closed when run returns

	for {
		m, err := cc.read()
		if err != nil {
			return // coordinator closed us (vacated, or job over)
		}
		f.mu.Lock()
		silent := f.silent
		f.mu.Unlock()
		if silent {
			continue
		}
		switch m.Type {
		case MsgAssign:
			f.mu.Lock()
			f.att = m.Assign.Attempt
			f.rank = m.Assign.Rank
			f.mu.Unlock()
			if err := cc.write(Msg{Type: MsgReady, Attempt: m.Assign.Attempt}); err != nil {
				return
			}
		case MsgStart:
			f.mu.Lock()
			rank := f.rank
			f.mu.Unlock()
			switch f.behave(m.Attempt, rank) {
			case "done":
				_ = cc.write(Msg{Type: MsgDone, Attempt: m.Attempt, Result: &RankResult{
					Iterations: 3, Steps: 10, Terminations: 5, Messages: 2, Bytes: 64,
				}})
			case "die":
				return
			case "silent":
				f.mu.Lock()
				f.silent = true
				f.mu.Unlock()
			}
		case MsgAbort:
			f.mu.Lock()
			f.att = 0
			f.mu.Unlock()
			_ = cc.write(Msg{Type: MsgFailed, Attempt: m.Attempt, Err: "abort ack (idle)"})
		case MsgStop:
			return
		case MsgReject:
			f.t.Errorf("%s: rejected: %s", f.name, m.Err)
			return
		}
	}
}

func newTestCoordinator(t *testing.T, ranks int, opt func(*Options)) *Coordinator {
	t.Helper()
	opts := Options{
		Spec:  JobSpec{GraphPath: writeTestGraph(t, 20), Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 5}, Seed: 1}},
		Ranks: ranks,
	}
	if opt != nil {
		opt(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoordinatorHappyPath(t *testing.T) {
	c := newTestCoordinator(t, 2, nil)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &fakeWorker{t: t, name: fmt.Sprintf("w%d", i), behave: func(int, int) string { return "done" }}
		wg.Add(1)
		go func() { defer wg.Done(); w.run(c.Addr()) }()
	}
	sum, err := c.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Attempts != 1 || sum.Failovers != 0 {
		t.Fatalf("want 1 attempt, 0 failovers; got %+v", sum)
	}
	if sum.Iterations != 3 || sum.Steps != 20 || sum.Terminations != 10 {
		t.Fatalf("aggregation wrong: %+v", sum)
	}
}

func TestCoordinatorFailoverOnConnDrop(t *testing.T) {
	// Three workers for two ranks: one spare. The worker seated when its
	// first start barrier releases dies; the coordinator must abort, seat
	// the spare, and rerun — every surviving worker sees attempt 2.
	c := newTestCoordinator(t, 2, nil)
	var wg sync.WaitGroup
	died := false
	var dmu sync.Mutex
	for i := 0; i < 3; i++ {
		w := &fakeWorker{t: t, name: fmt.Sprintf("w%d", i)}
		w.behave = func(attempt, rank int) string {
			dmu.Lock()
			defer dmu.Unlock()
			if !died && attempt == 1 && rank == 0 {
				died = true
				return "die"
			}
			return "done"
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.run(c.Addr()) }()
	}
	sum, err := c.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Failovers != 1 || sum.Attempts != 2 {
		t.Fatalf("want failover=1 attempts=2, got %+v", sum)
	}
}

func TestCoordinatorFailoverOnHeartbeatTimeout(t *testing.T) {
	// The dying rank keeps its connection open but goes silent — the
	// slow-death case only the heartbeat sweep can catch.
	c := newTestCoordinator(t, 2, func(o *Options) {
		o.HeartbeatTimeout = 400 * time.Millisecond
	})
	var wg sync.WaitGroup
	wentSilent := false
	var dmu sync.Mutex
	for i := 0; i < 3; i++ {
		w := &fakeWorker{t: t, name: fmt.Sprintf("w%d", i)}
		w.behave = func(attempt, rank int) string {
			dmu.Lock()
			defer dmu.Unlock()
			if !wentSilent && attempt == 1 && rank == 1 {
				wentSilent = true
				return "silent"
			}
			return "done"
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.run(c.Addr()) }()
	}
	sum, err := c.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Failovers != 1 || sum.Attempts != 2 {
		t.Fatalf("want failover=1 attempts=2, got %+v", sum)
	}
}

func TestCoordinatorRejectsVersionMismatch(t *testing.T) {
	c := newTestCoordinator(t, 1, nil)
	type runResult struct {
		sum *Summary
		err error
	}
	runc := make(chan runResult, 1)
	go func() {
		sum, err := c.Run()
		runc <- runResult{sum, err}
	}()

	// A worker speaking the wrong protocol version must get a reject that
	// names the coordinator's version.
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cc := newControlConn(conn)
	if err := cc.write(Msg{Type: MsgHello, V: ProtoVersion + 1, DataAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	m, err := cc.read()
	if err != nil {
		t.Fatalf("read reject: %v", err)
	}
	if m.Type != MsgReject || m.V != ProtoVersion {
		t.Fatalf("want reject with v%d, got %+v", ProtoVersion, m)
	}

	// Then a good worker completes the job as usual.
	w := &fakeWorker{t: t, name: "good", behave: func(int, int) string { return "done" }}
	go w.run(c.Addr()) //kk:goro-ok joined out of band: Run closes every control conn before returning, unblocking the worker
	res := <-runc
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	if res.sum.Attempts != 1 {
		t.Fatalf("got %+v", res.sum)
	}
}

func TestCoordinatorGatherTimeout(t *testing.T) {
	c := newTestCoordinator(t, 2, func(o *Options) {
		o.GatherTimeout = 300 * time.Millisecond
	})
	w := &fakeWorker{t: t, name: "lonely", behave: func(int, int) string { return "done" }}
	go w.run(c.Addr()) //kk:goro-ok joined out of band: Run closes every control conn before returning, unblocking the lone worker
	if _, err := c.Run(); err == nil {
		t.Fatal("want gather-timeout error, got nil")
	}
}

// TestCheckpointIntervalZeroRejected: a checkpoint directory with
// checkpoint_every 0 is refused by New, before any worker is seated —
// the same rule kkwalk and kkserve run under, instead of a silent 16.
func TestCheckpointIntervalZeroRejected(t *testing.T) {
	_, err := New(Options{
		Spec: JobSpec{
			GraphPath:     writeTestGraph(t, 20),
			Spec:          job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 5}, Seed: 1},
			CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
		},
		Ranks: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint interval 0") {
		t.Fatalf("New = %v, want a checkpoint interval 0 error", err)
	}
}
