package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// These tests drive the client's egress deterministically: gateConn hands
// every Write to the test and holds it until the test answers, and a
// goroutine's wait is observed in the goroutine dump, not guessed from a
// timeout.

// gateConn is one end of a net.Pipe whose writes wait for the test: each
// Write hands a copy of its bytes to writes and returns once the test
// answers on release, or once the conn is closed. Reads come from the
// pipe's other end. It has no writev, so a batch is one Write per buffer.
type gateConn struct {
	net.Conn
	writes  chan []byte
	release chan error
	once    sync.Once
	closed  chan struct{}
}

// newGateConn returns the client's end and the peer's end of a pipe.
func newGateConn(t *testing.T) (*gateConn, net.Conn) {
	local, remote := net.Pipe()
	c := &gateConn{Conn: local, writes: make(chan []byte), release: make(chan error), closed: make(chan struct{})}
	t.Cleanup(func() {
		_ = c.Close()
		_ = remote.Close()
	})
	return c, remote
}

func (c *gateConn) Write(p []byte) (int, error) {
	select {
	case c.writes <- bytes.Clone(p):
	case <-c.closed:
		return 0, net.ErrClosed
	}
	select {
	case err := <-c.release:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *gateConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// stacks returns every goroutine's stack but the caller's.
func stacks() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Split(string(buf), "\n\n")[1:]
}

// parkedIn reports whether some goroutine waits on a sync.Cond in fn.
func parkedIn(fn string) bool {
	for _, g := range stacks() {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, fn) {
			return true
		}
	}
	return false
}

// TestEgressCancelledPublishWaitsForWrite: a Publish whose context is done
// before its reply returns only once the batch holding its frame has been
// written, since the frame carries the 4 KiB body by reference. The caller
// overwrites the body as soon as Publish returns, and the bytes on the wire
// are still the original ones.
func TestEgressCancelledPublishWaitsForWrite(t *testing.T) {
	sent, m := cancelledPublishOnWire(t, Options{})
	payload := wire.EncodeMessage(m)
	if len(sent) != 13+len(payload) || binary.BigEndian.Uint32(sent) != uint32(8+len(payload)) ||
		wire.FrameType(sent[4]) != wire.FramePublish || !bytes.Equal(sent[13:], payload) {
		t.Fatalf("the PUBLISH frame on the wire (%d bytes) is not the message with its original body", len(sent))
	}
}

// cancelledPublishOnWire publishes a 4 KiB body with a cancelled context on
// a client with opts while the writer is held, checks that Publish waits for
// the write of the frame, overwrites the body once it has returned, and
// returns the bytes written after the held write and the message with its
// original body.
func cancelledPublishOnWire(t *testing.T, opts Options) ([]byte, *jms.Message) {
	t.Helper()
	gc, _ := newGateConn(t)
	c := NewClientWith(gc, opts)
	t.Cleanup(func() { _ = c.Close() })
	// Hold the writer in a write of its own: a PING nobody answers.
	go func() { _ = c.Ping(context.Background()) }()
	<-gc.writes

	body := bytes.Repeat([]byte{0xab}, 4<<10)
	original := bytes.Clone(body)
	m := jms.NewMessage("t")
	m.SetBody(body)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		err := c.Publish(ctx, m)
		for i := range body {
			body[i] = 0x5a
		}
		done <- err
	}()
	for !parkedIn("(*connWriter).wait") {
		select {
		case <-done:
			t.Fatal("the cancelled publish returned while its frame was still queued")
		default:
		}
		runtime.Gosched()
	}

	var sent []byte
	gc.release <- nil // the PING
	for {
		select {
		case p := <-gc.writes:
			sent = append(sent, p...)
			gc.release <- nil
			continue
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled publish: %v, want context.Canceled", err)
			}
		}
		break
	}
	m.SetBody(original)
	return sent, m
}

// TestEgressAcksNeverWait: with the client's writer held in a write, the
// read loop keeps reading the deliveries of an acked durable subscription
// and acks each one, far past the bound at which a publish would wait; the
// acks leave in delivery order once the write is released.
func TestEgressAcksNeverWait(t *testing.T) {
	const n, subID = 1000, 7
	gc, remote := newGateConn(t)
	c := NewClient(gc)
	t.Cleanup(func() { _ = c.Close() })
	ctx := ctxT(t)

	subscribed := make(chan *Subscription, 1)
	go func() {
		sub, err := c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone, DurableName: "d", Acked: true}, n)
		if err != nil {
			t.Error(err)
		}
		subscribed <- sub
	}()
	req := <-gc.writes
	gc.release <- nil
	ok := append(bytes.Clone(req[5:13]), wire.EncodeU64(subID)...)
	if err := wire.WriteFrame(remote, wire.Frame{Type: wire.FrameSubscribeOK, Payload: ok}); err != nil {
		t.Fatal(err)
	}
	sub := <-subscribed
	if sub == nil {
		t.FailNow()
	}

	go func() {
		m := jms.NewMessage("t")
		for seq := uint64(1); seq <= n; seq++ {
			if wire.WriteFrame(remote, wire.Frame{Type: wire.FrameMessage, Payload: wire.EncodeDelivery(subID, seq, m)}) != nil {
				return
			}
		}
	}()
	// The writer blocks in its first write, handing it over, until the
	// test takes it after the last delivery.
	for got := 0; got < n; {
		select {
		case <-sub.Chan():
			got++
			continue
		default:
		}
		if parkedIn("(*connWriter).begin") {
			t.Fatalf("the read loop waits for the writer after %d deliveries", got)
		}
		runtime.Gosched()
	}

	next := uint64(1)
	for next <= n {
		for r := bytes.NewReader(<-gc.writes); r.Len() > 0; next++ {
			f, err := wire.ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			id, seq, err := wire.DecodeAck(f.Payload)
			if f.Type != wire.FrameMsgAck || err != nil || id != subID || seq != next {
				t.Fatalf("%v frame for subscription %d seq %d (%v), want the ack of seq %d", f.Type, id, seq, err, next)
			}
		}
		gc.release <- nil
	}
}

// TestDialStartsTwoGoroutines: a client connection runs two goroutines, its
// read loop and its writer, and Close ends both; a coalescing client
// (Options.BatchMax) starts no more, also once it has published.
func TestDialStartsTwoGoroutines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ours := func() (n int) {
		for _, g := range stacks() {
			if strings.Contains(g, "client.(*Client).readLoop") || strings.Contains(g, "wire.(*connWriter).run") {
				n++
			}
		}
		return n
	}
	settled := func(want int) bool {
		for i := 0; i < 10000 && ours() != want; i++ {
			runtime.Gosched()
		}
		return ours() == want
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {BatchMax: 8}} {
		if !settled(0) {
			t.Fatalf("BatchMax %d: %d client goroutines before Dial", opts.BatchMax, ours())
		}
		before := runtime.NumGoroutine()
		c, err := DialWith(ln.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Nobody answers: the publish returns on its cancelled context.
		if err := c.Publish(cancelled, jms.NewMessage("t")); !errors.Is(err, context.Canceled) {
			t.Errorf("BatchMax %d: publish: %v, want context.Canceled", opts.BatchMax, err)
		}
		if n := runtime.NumGoroutine() - before; n != 2 || !settled(2) {
			t.Errorf("BatchMax %d: Dial and Publish started %d goroutines, %d of them the client's, want 2: the read loop and the writer",
				opts.BatchMax, n, ours())
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		if !settled(0) {
			t.Errorf("BatchMax %d: %d client goroutines left after Close", opts.BatchMax, ours())
		}
	}
}
