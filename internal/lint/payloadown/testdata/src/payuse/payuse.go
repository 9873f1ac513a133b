// Package payuse consumes fakewire messages; every way of retaining a
// payload past the call, and every sanctioned copy idiom, appears here.
package payuse

import "fakewire"

var global []fakewire.Message

var globalBuf []byte

type cache struct {
	msgs []fakewire.Message
	buf  []byte
	objs []any
}

func leakToGlobal(e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	global = msgs // want "payload retained in package-level state"
}

func leakToField(c *cache, e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	c.msgs = msgs // want "payload retained past the call via c"
}

func leakPayloadToField(c *cache, e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	c.buf = msgs[0].Payload // want "payload retained past the call via c"
}

func leakReadFrame(c *cache, buf []byte) {
	msgs, _, _ := fakewire.ReadFrame(buf)
	c.msgs = msgs // want "payload retained past the call via c"
}

func leakToChannel(ch chan fakewire.Message, e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	ch <- msgs[0] // want "payload sent to a channel"
}

func leakParam(msgs []fakewire.Message) {
	// Parameters of message type carry aliased payloads too.
	global = msgs // want "payload retained in package-level state"
}

func leakViaDemux(e *fakewire.Endpoint) {
	var queries []fakewire.Message
	msgs, _ := e.Exchange(nil)
	for _, m := range msgs {
		queries = append(queries, m)
	}
	global = queries // want "payload retained in package-level state"
}

func leakPayloadSlice(e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	globalBuf = msgs[0].Payload[:2] // want "payload retained in package-level state"
}

// --- sanctioned idioms: no diagnostics below this line ---

func copyBytesOK(c *cache, e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	p := append([]byte(nil), msgs[0].Payload...)
	c.buf = p
}

func copyBarrierOK(c *cache, e *fakewire.Endpoint) {
	// The checkpoint-barrier idiom: deep-copy every payload, then the
	// slice is severed from the endpoint's buffers and may be retained.
	msgs, _ := e.Exchange(nil)
	for i := range msgs {
		msgs[i].Payload = append([]byte(nil), msgs[i].Payload...)
	}
	c.msgs = msgs
}

func stringOK(e *fakewire.Endpoint) string {
	msgs, _ := e.Exchange(nil)
	return string(msgs[0].Payload) // string conversion copies
}

func writeIntoTaintedOK(e *fakewire.Endpoint, p []byte) {
	// Overwriting a payload slot in the endpoint-owned slice creates no
	// new retention.
	msgs, _ := e.Exchange(nil)
	msgs[0].Payload = p
}

func localUseOK(e *fakewire.Endpoint) int {
	msgs, _ := e.Exchange(nil)
	total := 0
	for _, m := range msgs {
		total += len(m.Payload)
	}
	return total
}

func localObjectOK(c *cache, e *fakewire.Endpoint) {
	// Message.Local transfers ownership to the receiver at delivery; it is
	// not a view of a recycled frame buffer.
	msgs, _ := e.Exchange(nil)
	for _, m := range msgs {
		if m.Local != nil {
			c.objs = append(c.objs, m.Local)
		}
	}
}

func clearThenStashOK(c *cache, e *fakewire.Endpoint) {
	// clear zeroes the elements, severing the payload aliases; keeping the
	// backing array as reusable scratch is then safe.
	msgs, _ := e.Exchange(nil)
	clear(msgs)
	c.msgs = msgs[:0]
}

func stashWithoutClearBad(c *cache, e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	c.msgs = msgs[:0] // want "payload retained past the call via c"
}

func reassignCleanOK(c *cache, e *fakewire.Endpoint) {
	msgs, _ := e.Exchange(nil)
	_ = msgs
	var fresh []fakewire.Message
	for _, m := range msgs {
		fresh = append(fresh, fakewire.Message{
			From:    m.From,
			Kind:    m.Kind,
			Payload: append([]byte(nil), m.Payload...),
		})
	}
	c.msgs = fresh
}

// peerTracer mirrors core.Tracer's exchange hook, whose contract forbids
// retaining the delivered slice.
type peerTracer interface {
	ObserveExchangePeers(rank int, msgs []fakewire.Message)
}

func hookCallOK(tr peerTracer, e *fakewire.Endpoint) {
	// Handing delivered messages to a no-retain hook is not retention.
	msgs, _ := e.Exchange(nil)
	tr.ObserveExchangePeers(0, msgs)
}
