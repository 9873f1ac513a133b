package coord

import (
	"net"
	"strings"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/job"
)

// pipePair returns two controlConns over an in-memory connection.
func pipePair(t *testing.T) (*controlConn, *controlConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return newControlConn(a), newControlConn(b)
}

func TestProtoRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	want := Msg{
		Type: MsgAssign,
		Assign: &Assignment{
			Rank:            1,
			Ranks:           3,
			Attempt:         2,
			Nonce:           0xdeadbeef,
			Peers:           []string{"a:1", "b:2", "c:3"},
			PartitionStarts: []uint32{0, 10, 20, 30},
			Resume:          true,
			Spec:            JobSpec{GraphPath: "g.txt", Spec: job.Spec{Spec: alg.Spec{Alg: "deepwalk", Length: 80}, Seed: 7}},
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- ca.write(want) }()
	got, err := cb.read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	if got.Type != MsgAssign || got.Assign == nil {
		t.Fatalf("got %+v", got)
	}
	a := got.Assign
	if a.Rank != 1 || a.Ranks != 3 || a.Attempt != 2 || a.Nonce != 0xdeadbeef || !a.Resume {
		t.Fatalf("assignment fields mangled: %+v", a)
	}
	if len(a.Peers) != 3 || a.Peers[2] != "c:3" {
		t.Fatalf("peers mangled: %v", a.Peers)
	}
	if len(a.PartitionStarts) != 4 || a.PartitionStarts[3] != 30 {
		t.Fatalf("partition mangled: %v", a.PartitionStarts)
	}
	if a.Spec.GraphPath != "g.txt" || a.Spec.Seed != 7 {
		t.Fatalf("spec mangled: %+v", a.Spec)
	}
}

func TestProtoInterleavedWriters(t *testing.T) {
	// The worker's heartbeat goroutine and main loop share one conn; the
	// write mutex must keep lines whole.
	ca, cb := pipePair(t)
	const n = 50
	go func() { //kk:goro-ok joined out of band: the reader drains all 2n messages before the test returns
		for i := 0; i < n; i++ {
			_ = ca.write(Msg{Type: MsgHeartbeat, Attempt: 1, Superstep: i})
		}
	}()
	go func() { //kk:goro-ok joined out of band: the reader drains all 2n messages before the test returns
		for i := 0; i < n; i++ {
			_ = ca.write(Msg{Type: MsgReady, Attempt: 1, ResumeIter: i})
		}
	}()
	beats, readies := 0, 0
	for i := 0; i < 2*n; i++ {
		m, err := cb.read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		switch m.Type {
		case MsgHeartbeat:
			beats++
		case MsgReady:
			readies++
		default:
			t.Fatalf("torn or foreign message: %+v", m)
		}
	}
	if beats != n || readies != n {
		t.Fatalf("got %d heartbeats, %d readies; want %d each", beats, readies, n)
	}
}

func TestProtoRejectsOversizedLine(t *testing.T) {
	ca, cb := pipePair(t)
	go func() { //kk:goro-ok joined out of band: pipePair's cleanup closes both conns, unblocking a mid-stream writer
		// Enough past the limit that the reader crosses it on a whole
		// buffered chunk, as a runaway peer's stream would.
		huge := strings.Repeat("x", maxControlLine+(128<<10))
		_, _ = ca.conn.Write([]byte(huge))
	}()
	if _, err := cb.read(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want oversized-line error, got %v", err)
	}
}

func TestProtoRejectsUntypedMessage(t *testing.T) {
	ca, cb := pipePair(t)
	go func() { _, _ = ca.conn.Write([]byte("{}\n")) }() //kk:goro-ok joined out of band: one synchronous pipe write, received by the read under test
	if _, err := cb.read(); err == nil || !strings.Contains(err.Error(), "no type") {
		t.Fatalf("want no-type error, got %v", err)
	}
}
