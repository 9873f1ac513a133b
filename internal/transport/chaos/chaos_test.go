package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"knightking/internal/transport"
)

// runGroup runs fn once per endpoint concurrently and fails the test on the
// first error.
func runGroup(t *testing.T, eps []transport.Endpoint, fn func(ep transport.Endpoint) error) {
	t.Helper()
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			errs[i] = fn(ep)
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// chatter drives rounds of all-to-all traffic through a wrapped group and
// returns every rank's received payload bytes, concatenated in delivery
// order per round.
func chatter(t *testing.T, eps []transport.Endpoint, rounds int) [][]byte {
	t.Helper()
	got := make([][]byte, len(eps))
	var mu sync.Mutex
	runGroup(t, eps, func(ep transport.Endpoint) error {
		var acc []byte
		for r := 0; r < rounds; r++ {
			for to := 0; to < ep.Size(); to++ {
				payload := []byte(fmt.Sprintf("r%d:%d->%d", r, ep.Rank(), to))
				ep.Send(to, uint8(r%7)+1, payload)
			}
			msgs, err := ep.Exchange()
			if err != nil {
				return err
			}
			for _, m := range msgs {
				acc = append(acc, m.Payload...)
				acc = append(acc, '|')
			}
		}
		mu.Lock()
		got[ep.Rank()] = acc
		mu.Unlock()
		return nil
	})
	return got
}

// TestChaosReplayDeterminism: two runs with the same seed over the same
// traffic inject byte-for-byte identical faults — the property that makes a
// chaos failure debuggable.
func TestChaosReplayDeterminism(t *testing.T) {
	cfg := Config{
		Seed:         99,
		DelayProb:    0.3,
		MaxDelay:     200 * time.Microsecond,
		TruncateProb: 0.2,
		BitFlipProb:  0.3,
	}
	run := func() ([][]Event, [][]byte) {
		wrapped := WrapGroup(transport.NewInProcGroup(3), cfg)
		got := chatter(t, AsEndpoints(wrapped), 6)
		events := make([][]Event, len(wrapped))
		for i, w := range wrapped {
			events[i] = w.Events()
		}
		return events, got
	}
	ev1, got1 := run()
	ev2, got2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event logs differ across replays:\n%v\nvs\n%v", ev1, ev2)
	}
	for rank := range got1 {
		if !bytes.Equal(got1[rank], got2[rank]) {
			t.Fatalf("rank %d received different bytes across replays", rank)
		}
	}
	var fired int
	for _, evs := range ev1 {
		fired += len(evs)
	}
	if fired == 0 {
		t.Fatal("chaos config injected nothing; test exercises no fault path")
	}
}

// TestChaosDelaysPreserveDelivery: delays and slow peers perturb timing
// only — every rank receives exactly what an undisturbed group delivers.
func TestChaosDelaysPreserveDelivery(t *testing.T) {
	const rounds = 5
	clean := chatter(t, transport.NewInProcGroup(3), rounds)

	wrapped := WrapGroup(transport.NewInProcGroup(3), Config{
		Seed:       7,
		DelayProb:  0.5,
		MaxDelay:   300 * time.Microsecond,
		SlowEveryN: 2,
	})
	delayed := chatter(t, AsEndpoints(wrapped), rounds)

	for rank := range clean {
		if !bytes.Equal(clean[rank], delayed[rank]) {
			t.Fatalf("rank %d delivery changed under delays-only chaos", rank)
		}
	}
	var slowSeen bool
	for _, w := range wrapped {
		for _, e := range w.Events() {
			if e.Kind == "slow" {
				slowSeen = true
			}
			if e.Kind == "truncate" || e.Kind == "bitflip" || e.Kind == "disconnect" {
				t.Fatalf("delays-only config injected %q", e.Kind)
			}
		}
		if w.Exchanges() != rounds {
			t.Fatalf("wrapper counted %d exchanges, want %d", w.Exchanges(), rounds)
		}
	}
	if !slowSeen {
		t.Fatal("SlowEveryN=2 over 5 rounds fired no slow event")
	}
}

// TestChaosDisconnect: the programmed rank dies with ErrInjected at its
// DisconnectAt-th exchange and the teardown unblocks the surviving ranks
// with errors — the precondition for the recovery path. A DisconnectAt of
// 0 never fires, and then Rank, Size, Send and Exchange pass through.
func TestChaosDisconnect(t *testing.T) {
	const rounds = 5
	for _, tc := range []struct {
		name          string
		ranks, victim int
		at            int // DisconnectAt
	}{
		{"last-rank-at-exchange-2", 3, 2, 2},
		{"first-rank-at-exchange-3", 2, 0, 3},
		{"zero-never-fires", 1, 0, 0},
		{"zero-passes-through", 2, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := transport.NewInProcGroup(tc.ranks)
			victim := Wrap(eps[tc.victim], Config{DisconnectAt: tc.at})
			eps[tc.victim] = victim

			errs := make([]error, tc.ranks)
			recv := make([][]transport.Message, tc.ranks)
			var wg sync.WaitGroup
			for i, ep := range eps {
				wg.Add(1)
				go func(i int, ep transport.Endpoint) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						ep.Send((i+1)%tc.ranks, 7, []byte{byte(i), byte(r)})
						msgs, err := ep.Exchange()
						if err != nil {
							errs[i] = err
							return
						}
						recv[i] = append(recv[i], msgs...)
					}
				}(i, ep)
			}
			wg.Wait()

			if tc.at == 0 {
				for i, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", i, err)
					}
				}
				if evs := victim.Events(); len(evs) != 0 {
					t.Fatalf("DisconnectAt=0 injected %v", evs)
				}
				if victim.Rank() != tc.victim || victim.Size() != tc.ranks || victim.Exchanges() != rounds {
					t.Fatalf("rank/size/exchanges = %d/%d/%d, want %d/%d/%d",
						victim.Rank(), victim.Size(), victim.Exchanges(), tc.victim, tc.ranks, rounds)
				}
				for i, msgs := range recv {
					from := (i + tc.ranks - 1) % tc.ranks
					if len(msgs) != rounds {
						t.Fatalf("rank %d received %d messages, want %d", i, len(msgs), rounds)
					}
					for r, m := range msgs {
						if m.From != from || m.Kind != 7 || !bytes.Equal(m.Payload, []byte{byte(from), byte(r)}) {
							t.Fatalf("rank %d round %d: got %+v", i, r, m)
						}
					}
				}
				return
			}

			if !errors.Is(errs[tc.victim], transport.ErrInjected) {
				t.Fatalf("victim error = %v, want ErrInjected", errs[tc.victim])
			}
			for i, err := range errs {
				if i != tc.victim && err == nil {
					t.Fatalf("surviving rank %d saw no error after disconnect", i)
				}
			}
			if got := victim.Exchanges(); got != tc.at {
				t.Fatalf("victim saw %d exchanges, want %d", got, tc.at)
			}
			evs := victim.Events()
			if len(evs) != 1 || evs[0].Kind != "disconnect" || evs[0].Exchange != tc.at {
				t.Fatalf("victim events = %v, want one disconnect at exchange %d", evs, tc.at)
			}
		})
	}
}

// TestChaosCorruptionMutates: with certain probabilities, truncation
// shortens payloads and bit flips change exactly one bit of a copy, never
// the sender's buffer (the in-process transport shares slices).
func TestChaosCorruptionMutates(t *testing.T) {
	original := []byte("the quick brown fox")

	t.Run("truncate", func(t *testing.T) {
		eps := transport.NewInProcGroup(2)
		w := Wrap(eps[0], Config{Seed: 3, TruncateProb: 1})
		var msgs []transport.Message
		runGroup(t, []transport.Endpoint{w, eps[1]}, func(ep transport.Endpoint) error {
			if ep.Rank() == 1 {
				ep.Send(0, 1, original)
			}
			var err error
			got, err := ep.Exchange()
			if ep.Rank() == 0 {
				msgs = got
			}
			return err
		})
		if len(msgs) != 1 || len(msgs[0].Payload) >= len(original) {
			t.Fatalf("truncation did not shorten the payload: %+v", msgs)
		}
		if !bytes.Equal(msgs[0].Payload, original[:len(msgs[0].Payload)]) {
			t.Fatal("truncation changed bytes instead of cutting the tail")
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		eps := transport.NewInProcGroup(2)
		w := Wrap(eps[0], Config{Seed: 3, BitFlipProb: 1})
		sent := append([]byte(nil), original...)
		var msgs []transport.Message
		runGroup(t, []transport.Endpoint{w, eps[1]}, func(ep transport.Endpoint) error {
			if ep.Rank() == 1 {
				ep.Send(0, 1, sent)
			}
			got, err := ep.Exchange()
			if ep.Rank() == 0 {
				msgs = got
			}
			return err
		})
		if len(msgs) != 1 || len(msgs[0].Payload) != len(original) {
			t.Fatalf("bitflip changed the payload length: %+v", msgs)
		}
		diff := 0
		for i := range original {
			diff += popcount8(msgs[0].Payload[i] ^ original[i])
		}
		if diff != 1 {
			t.Fatalf("bitflip changed %d bits, want exactly 1", diff)
		}
		if !bytes.Equal(sent, original) {
			t.Fatal("bitflip mutated the sender's buffer instead of a copy")
		}
	})
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
