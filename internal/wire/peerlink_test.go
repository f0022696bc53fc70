package wire

import (
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jms"
)

// waitAck waits for a forward's outcome, failing the test if none arrives
// within the limit.
func waitAck(t *testing.T, ack *ForwardAck, within time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ack.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(within):
		t.Fatalf("forward outcome still missing after %s", within)
		return nil
	}
}

// TestPeerLinkAckTimeout points a link at a listener that accepts, reads
// and never answers. The session's one watchdog must fail the whole window
// once its oldest forward is AckTimeout old — no earlier, and without a
// goroutine or timer per forward.
func TestPeerLinkAckTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()

	const ackTimeout = 300 * time.Millisecond
	l := NewPeerLink(ln.Addr().String(), 0, time.Second, ackTimeout)
	defer l.Close()
	inner := EncodeMessage(jms.NewMessage("t"))

	const window = 32
	start := time.Now()
	first := NewForwardAck(1)
	l.Forward(first, false, inner) // dials
	settled := runtime.NumGoroutine()
	acks := []*ForwardAck{first}
	for i := 1; i < window; i++ {
		ack := NewForwardAck(1)
		l.Forward(ack, false, inner)
		acks = append(acks, ack)
	}
	// The session's own goroutines may still have been starting at the
	// first count; one per forward would add far more than that slack.
	if got := runtime.NumGoroutine(); got > settled+3 {
		t.Fatalf("%d forwards grew the goroutine count from %d to %d", window-1, settled, got)
	}
	if st := l.Stats(); st.Inflight != window {
		t.Fatalf("Inflight = %d, want %d", st.Inflight, window)
	}

	for _, ack := range acks {
		err := waitAck(t, ack, 5*time.Second)
		if err == nil || !strings.Contains(err.Error(), "ack timeout") {
			t.Fatalf("forward outcome = %v, want ack timeout", err)
		}
	}
	if took := time.Since(start); took < ackTimeout {
		t.Fatalf("window failed after %s, before the %s ack timeout", took, ackTimeout)
	}
	if st := l.Stats(); st.Failed != window || st.Inflight != 0 {
		t.Fatalf("stats = %+v, want %d failed, none in flight", st, window)
	}
	(<-accepted).Close()
}

// TestPeerLinkRepliesOutOfOrder answers a window back to front: request IDs
// locate their slots, so every forward still resolves with its own outcome.
func TestPeerLinkRepliesOutOfOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const window = 5
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var reqs []uint64
		for len(reqs) < window {
			f, err := ReadFrame(c)
			if err != nil {
				return
			}
			reqs = append(reqs, binary.BigEndian.Uint64(f.Payload))
		}
		for i := window - 1; i >= 0; i-- {
			f := Frame{Type: FramePubAck, Payload: EncodeU64(reqs[i])}
			if i == 2 {
				f = Frame{Type: FrameError, Payload: EncodeError(reqs[i], "no such topic")}
			}
			if WriteFrame(c, f) != nil {
				return
			}
		}
		// Hold the connection until the link closes it.
		_, _ = ReadFrame(c)
	}()

	l := NewPeerLink(ln.Addr().String(), 0, time.Second, 5*time.Second)
	defer l.Close()
	inner := EncodeMessage(jms.NewMessage("t"))
	var acks []*ForwardAck
	for i := 0; i < window; i++ {
		ack := NewForwardAck(1)
		l.Forward(ack, false, inner)
		acks = append(acks, ack)
	}
	for i, ack := range acks {
		err := waitAck(t, ack, 5*time.Second)
		if (i == 2) != (err != nil) {
			t.Fatalf("forward %d outcome = %v", i, err)
		}
	}
	if st := l.Stats(); st.Acked != window-1 || st.Failed != 1 || st.Inflight != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
