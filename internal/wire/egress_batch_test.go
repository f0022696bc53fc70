package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
)

// These tests drive the connection writer deterministically: gateConn
// hands every Write to the test and holds it until the test answers, and a
// producer's wait at the bound is observed in the goroutine dump, not
// guessed from a timeout.

// gateConn is a net.Conn whose writes wait for the test: each Write hands a
// copy of its bytes to writes and returns once the test answers on release,
// failing with the error it sends, or once the conn is closed. It has no
// writev, so a batch with no by-reference tail is exactly one Write.
type gateConn struct {
	net.Conn
	writes  chan []byte
	release chan error
	once    sync.Once
	closed  chan struct{}
}

func newGateConn() *gateConn {
	return &gateConn{writes: make(chan []byte), release: make(chan error), closed: make(chan struct{})}
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
	return nil
}

// gatedConn is a serverConn reduced to its egress half over a gateConn. The
// test's cleanup closes the conn, which releases a held write, and stops
// the writer.
func gatedConn(t *testing.T) (*serverConn, *gateConn, *wireCounters) {
	t.Helper()
	c, counters := newGateConn(), &wireCounters{}
	sc := &serverConn{
		server: &Server{},
		conn:   c,
		log:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		w:      newConnWriter(c, counters, nil),
	}
	t.Cleanup(func() {
		_ = c.Close()
		sc.w.close()
	})
	return sc, c, counters
}

// frames splits one Write's bytes into its frames.
func frames(t *testing.T, p []byte) []Frame {
	t.Helper()
	var out []Frame
	for r := bytes.NewReader(p); r.Len() > 0; {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// waitingInBegin reports whether some goroutine waits for room in
// connWriter.begin.
func waitingInBegin() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*connWriter).begin") {
			return true
		}
	}
	return false
}

// blocks runs produce in a goroutine and reports whether it waits in begin
// (true) or returns first (false); the returned channel yields its error.
func blocks(produce func() error) (bool, <-chan error) {
	done := make(chan error, 1)
	go func() { done <- produce() }()
	for {
		select {
		case err := <-done:
			done <- err
			return false, done
		default:
		}
		if waitingInBegin() {
			return true, done
		}
		runtime.Gosched()
	}
}

// TestEgressProducerOrder: delivery bursts, control replies and peer-link
// forwards append to one writer concurrently while it is held in its
// writes; whatever the interleaving, each producer's frames leave in the
// order it appended them, and every frame is counted once.
func TestEgressProducerOrder(t *testing.T) {
	const n, burst = 96, 4
	sc, c, counters := gatedConn(t)
	link := &PeerLink{addr: "peer", origin: 2}
	link.sess = &peerSession{link: link, conn: c, w: sc.w, headReq: 1}

	m := deliveryMessage(rand.New(rand.NewSource(1)), 16, 0)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // deliveries, in bursts
		defer wg.Done()
		refs := make([]DeliveryRef, burst)
		sends := make([]pumpSend, burst)
		for i := 0; i < n; i += burst {
			for j := range refs {
				refs[j] = DeliveryRef{SubID: 1, Seq: uint64(i + j)}
				sends[j] = pumpSend{m: m, lo: j, hi: j + 1}
			}
			if err := sc.sendBurst(sends, refs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // control replies
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := sc.writeU64(FramePubAck, uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // forwards: request IDs 1..n in admission order
		defer wg.Done()
		for i := 0; i < n; i++ {
			link.Forward(NewForwardAck(1), false, binary.BigEndian.AppendUint64(nil, uint64(i)))
		}
	}()

	next := map[FrameType]uint64{}
	writes := 0
	for got := 0; got < 3*n; writes++ {
		for _, f := range frames(t, <-c.writes) {
			var v uint64
			switch f.Type {
			case FrameMessage:
				_, v, _, _ = DecodeDelivery(f.Payload)
			case FramePubAck:
				v = binary.BigEndian.Uint64(f.Payload)
			case FrameForward:
				v = binary.BigEndian.Uint64(f.Payload) - 1
				if _, inner, err := DecodeForward(f.Payload[8:]); err != nil || binary.BigEndian.Uint64(inner) != v {
					t.Fatalf("forward %d carries the wrong publish (%v)", v, err)
				}
			default:
				t.Fatalf("unexpected %v frame", f.Type)
			}
			if v != next[f.Type] {
				t.Fatalf("%v frame %d arrived where %d was due", f.Type, v, next[f.Type])
			}
			next[f.Type]++
			got++
		}
		c.release <- nil
	}
	wg.Wait()
	sc.w.close()
	if fo, wc := counters.framesOut.Load(), counters.writeCalls.Load(); fo != 3*n || wc != uint64(writes) {
		t.Errorf("framesOut %d, writeCalls %d; want %d frames in %d writes", fo, wc, 3*n, writes)
	}
}

// fillToBound holds the writer in its first write and fills the next batch
// to the bound.
func fillToBound(t *testing.T, sc *serverConn, c *gateConn) {
	t.Helper()
	if err := sc.writeU64(FramePubAck, 0); err != nil {
		t.Fatal(err)
	}
	<-c.writes
	for i := 1; i <= fillMaxFrames; i++ {
		if err := sc.writeU64(FramePubAck, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEgressBoundBlocks: with one write in flight and the fill batch at its
// bound, a producer waits; the writer's next swap releases it, and its frame
// goes out in the batch after the full one.
func TestEgressBoundBlocks(t *testing.T) {
	sc, c, _ := gatedConn(t)
	fillToBound(t, sc, c)
	blocked, done := blocks(func() error { return sc.writeU64(FramePubAck, fillMaxFrames+1) })
	if !blocked {
		t.Fatal("a producer appended past the bound")
	}
	c.release <- nil
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if full := frames(t, <-c.writes); len(full) != fillMaxFrames {
		t.Errorf("the batch after the first held %d frames, want the bound %d", len(full), fillMaxFrames)
	}
	c.release <- nil
	if last := frames(t, <-c.writes); len(last) != 1 || binary.BigEndian.Uint64(last[0].Payload) != fillMaxFrames+1 {
		t.Errorf("the released producer's frame went out as %d frames", len(last))
	}
	c.release <- nil
}

// TestEgressDeadNeverBlocks: after a write error the writer closes the
// connection and discards, and no producer waits again, however far past
// the bound it appends — the one parked at the bound is released too.
func TestEgressDeadNeverBlocks(t *testing.T) {
	sc, c, counters := gatedConn(t)
	fillToBound(t, sc, c)
	blocked, parked := blocks(func() error { return sc.writeU64(FramePubAck, 0) })
	if !blocked {
		t.Fatal("a producer appended past the bound")
	}
	c.release <- errors.New("peer gone")
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	<-c.closed
	m := deliveryMessage(rand.New(rand.NewSource(1)), 4<<10, 0)
	for i := 0; i < 2*fillMaxFrames; i++ {
		if waited, _ := blocks(func() error { return deliver(sc, []DeliveryRef{{SubID: 1}}, m) }); waited {
			t.Fatalf("producer %d waited on a dead connection", i)
		}
	}
	sc.w.close()
	if wc := counters.writeCalls.Load(); wc != 1 {
		t.Errorf("%d writes, want only the one that failed", wc)
	}
	if err := sc.writeU64(FramePubAck, 0); !errors.Is(err, errWriterClosed) {
		t.Errorf("write after close: %v, want errWriterClosed", err)
	}
}

// TestPumpSubClosedFollowsDeliveries: a disconnect notice staged after a
// subscription's deliveries leaves after them in the same burst, a sibling
// subscription's later delivery after it; the subscription is finished on
// the connection before the notice is queued.
func TestPumpSubClosedFollowsDeliveries(t *testing.T) {
	b := broker.New(broker.Options{})
	defer b.Close()
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	sc, c, _ := gatedConn(t)
	o := b.NewOutbox()
	sc.subs = map[uint64]*connSub{}
	var hs []*broker.Subscriber
	for id := uint64(1); id <= 2; id++ {
		cs := &connSub{id: id}
		h, err := o.Subscribe("t", nil, cs)
		if err != nil {
			t.Fatal(err)
		}
		cs.sub, sc.subs[id] = h, cs
		hs = append(hs, h)
	}
	m1, m2, m3 := jms.NewMessage("t"), jms.NewMessage("t"), jms.NewMessage("t")
	batch := []broker.Delivery{{Msg: m1, Sub: hs[0]}, {Msg: m2, Sub: hs[0]}, {Sub: hs[0]}, {Msg: m3, Sub: hs[1]}}
	refs, sends := stageDeliveries(batch, nil, nil)
	if err := sc.sendBurst(sends, refs); err != nil {
		t.Fatal(err)
	}
	var got []FrameType
	var subOf []uint64
	for _, f := range frames(t, <-c.writes) {
		got = append(got, f.Type)
		subOf = append(subOf, binary.BigEndian.Uint64(f.Payload))
	}
	c.release <- nil
	want := []FrameType{FrameMessage, FrameMessage, FrameSubClosed, FrameMessage}
	if !slices.Equal(got, want) || !slices.Equal(subOf, []uint64{1, 1, 1, 2}) {
		t.Fatalf("frames %v for subscriptions %v, want %v for 1, 1, 1, 2", got, subOf, want)
	}
	if _, ok := sc.subs[1]; ok {
		t.Error("the closed subscription is still on the connection")
	}
}

// TestEgressSubscribeReplyNeverWaits: SUBSCRIBE queues its reply holding
// pumpMu, which a served connection's writer takes before its swap, so the
// reply must not wait for room: with the writer held in a write and the
// fill at its bound, SUBSCRIBE returns, and its reply goes out last in the
// batch after the held one. A SUBSCRIBE that fails may wait for room to
// reply, but not holding pumpMu: the writer's next swap frees room, and the
// ERROR goes out in the batch after it.
func TestEgressSubscribeReplyNeverWaits(t *testing.T) {
	c := newGateConn()
	b := recycleBroker(t, broker.Options{})
	sc := recycleConn(t, b, c)
	fillToBound(t, sc, c)
	sub := append(EncodeU64(1), EncodeSubscribe("t", FilterSpec{Mode: FilterNone})...)
	blocked, done := blocks(func() error { return sc.handleFrame(Frame{Type: FrameSubscribe, Payload: sub}) })
	if blocked {
		t.Fatal("SUBSCRIBE waited for room while holding pumpMu")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.release <- nil
	fs := frames(t, <-c.writes)
	if len(fs) != fillMaxFrames+1 || fs[len(fs)-1].Type != FrameSubscribeOK {
		t.Errorf("the batch after the held one has %d frames, the last %v; want %d, the last SUBSCRIBE_OK",
			len(fs), fs[len(fs)-1].Type, fillMaxFrames+1)
	}
	c.release <- nil

	if _, err := b.SubscribeDurable("t", "d", nil, broker.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	fillToBound(t, sc, c)
	sub = append(EncodeU64(2), EncodeSubscribe("t", FilterSpec{Mode: FilterNone, DurableName: "d"})...)
	_, done = blocks(func() error { return sc.handleFrame(Frame{Type: FrameSubscribe, Payload: sub}) })
	c.release <- nil
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a failing SUBSCRIBE and the writer wait on each other")
	}
	if fs := frames(t, <-c.writes); len(fs) != fillMaxFrames {
		t.Errorf("the batch after the held one has %d frames, want the bound %d", len(fs), fillMaxFrames)
	}
	c.release <- nil
	if fs := frames(t, <-c.writes); len(fs) != 1 || fs[0].Type != FrameError {
		t.Errorf("the batch after that has %d frames, want the failing SUBSCRIBE's ERROR alone", len(fs))
	}
	c.release <- nil
}

// TestEgressTakesDurableRefill: a durable consumer's outbox share is
// refilled from its backlog inside the writer's own take, with no wake-up
// posted, so the writer must keep taking past a short burst: with 4
// deliveries a subscription and 40 in the backlog, it writes all 40 before
// it idles.
func TestEgressTakesDurableRefill(t *testing.T) {
	const n = 40
	b := recycleBroker(t, broker.Options{SubscriberBuffer: 4})
	h, err := b.SubscribeDurable("t", "d", nil, broker.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Publish(context.Background(), jms.NewMessage("t")); err != nil {
			t.Fatal(err)
		}
	}
	for backlog := 0; backlog < n; runtime.Gosched() {
		if backlog, _, err = b.DurableBacklog("t", "d"); err != nil {
			t.Fatal(err)
		}
	}
	c := newGateConn()
	sc := recycleConn(t, b, c)
	sc.request(t, FrameSubscribe, 1, EncodeSubscribe("t", FilterSpec{Mode: FilterNone, DurableName: "d"}))
	for got := 0; got < n; {
		select {
		case p := <-c.writes:
			for _, f := range frames(t, p) {
				if f.Type == FrameMessage {
					got++
				}
			}
			c.release <- nil
		default:
			if writerParked() {
				t.Fatalf("the writer idles with %d of %d deliveries written", got, n)
			}
			runtime.Gosched()
		}
	}
}

// writerParked reports whether every connection writer is parked in its
// wait for a wake-up, so none has a kick or an outbox wake-up left to act on.
func writerParked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by repro/internal/wire.(*connWriter).start") && !strings.Contains(g, "[chan receive") {
			return false
		}
	}
	return true
}

// readGate is a gateConn a server can serve: Read returns in, then blocks
// until hangUp is closed and reports the end of the stream.
type readGate struct {
	*gateConn
	in     io.Reader
	hangUp chan struct{}
}

func (c *readGate) Read(p []byte) (int, error) {
	if n, err := c.in.Read(p); err == nil {
		return n, nil
	}
	<-c.hangUp
	return 0, io.EOF
}

func (c *readGate) RemoteAddr() net.Addr { return &net.TCPAddr{} }

// serveGate serves a readGate connection to b through handleConn itself,
// with frames as the connection's input. The returned teardown ends the read
// loop and waits for the connection's teardown; the test's cleanup calls it
// too.
func serveGate(t *testing.T, b *broker.Broker, frames ...Frame) (*readGate, func()) {
	t.Helper()
	var in bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&in, f); err != nil {
			t.Fatal(err)
		}
	}
	c := &readGate{gateConn: newGateConn(), in: &in, hangUp: make(chan struct{})}
	s := &Server{broker: b, log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	s.wg.Add(1)
	go s.handleConn(c)
	var once sync.Once
	teardown := func() {
		once.Do(func() { close(c.hangUp) })
		s.wg.Wait()
	}
	t.Cleanup(func() {
		_ = c.Close()
		teardown()
	})
	return c, teardown
}

// TestEgressTeardownRequeuesUntaken: a durable, non-acked subscription's
// backlog is more than the writer takes in one turn. Its first write fails
// while the rest is still queued; from then on the writer takes nothing,
// and the connection's teardown returns every delivery it had not taken to
// the durable backlog, in order.
func TestEgressTeardownRequeuesUntaken(t *testing.T) {
	const n = fillMaxFrames + 3*deliveryCoalesce
	b := recycleBroker(t, broker.Options{})
	h, err := b.SubscribeDurable("t", "d", nil, broker.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unsubscribe(); err != nil { // detach: the backlog keeps what follows
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m := jms.NewMessage("t")
		if err := m.SetInt64Property("n", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Publish(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	for backlog := 0; backlog < n; runtime.Gosched() {
		if backlog, _, err = b.DurableBacklog("t", "d"); err != nil {
			t.Fatal(err)
		}
	}
	nth := func(m *jms.Message) int64 {
		v, _ := m.Int64Property("n")
		return v
	}

	sub := append(EncodeU64(1), EncodeSubscribe("t", FilterSpec{Mode: FilterNone, DurableName: "d"})...)
	c, teardown := serveGate(t, b, Frame{Type: FrameSubscribe, Payload: sub})
	taken := 0
	for failed := false; !failed; {
		for _, f := range frames(t, <-c.writes) {
			if f.Type != FrameMessage {
				continue
			}
			_, _, m, err := DecodeDelivery(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if got := nth(m); got != int64(taken) {
				t.Fatalf("delivery %d carries message %d", taken, got)
			}
			taken++
			failed = true
		}
		if failed {
			c.release <- errors.New("peer gone")
		} else {
			c.release <- nil
		}
	}
	if taken >= n {
		t.Fatalf("the writer took all %d deliveries in one turn; nothing is left to requeue", n)
	}
	<-c.closed // the writer closed the connection on the failed write
	for !writerParked() {
		runtime.Gosched()
	}
	teardown() // the read loop ends: the connection is torn down

	if backlog, _, err := b.DurableBacklog("t", "d"); err != nil || backlog != n-taken {
		t.Fatalf("backlog %d (%v) after teardown, want the %d deliveries never taken", backlog, err, n-taken)
	}
	if h, err = b.SubscribeDurable("t", "d", nil, broker.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for want := taken; want < n; want++ {
		m, err := h.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := nth(m); got != int64(want) {
			t.Fatalf("replay: message %d, want %d", got, want)
		}
	}
}

// TestEgressDeadWriterReleasesTransmit: a connection subscribes to a topic
// and publishes to it, and its first write fails. Its writer takes nothing
// more off its outbox, and its read loop has not reached teardown — here it
// waits in Read; it might as well wait for its own publish's commit, which
// waits for the topic's transmit. The failed write closes the outbox, so a
// transmit to the connection's full subscription does not wait for it: the
// topic's other subscriber receives every message, the connection's and
// another publisher's.
func TestEgressDeadWriterReleasesTransmit(t *testing.T) {
	const n = 64
	b := recycleBroker(t, broker.Options{SubscriberBuffer: 4})
	other, err := b.SubscribeBuffered("t", nil, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	in := []Frame{{Type: FrameSubscribe, Payload: append(EncodeU64(1), EncodeSubscribe("t", FilterSpec{Mode: FilterNone})...)}}
	for i := 0; i < n; i++ {
		in = append(in, Frame{Type: FramePublish, Payload: append(EncodeU64(uint64(2+i)), EncodeMessage(jms.NewMessage("t"))...)})
	}
	c, _ := serveGate(t, b, in...)
	<-c.writes
	c.release <- errors.New("peer gone")
	<-c.closed

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := b.Publish(ctx, jms.NewMessage("t")); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for i := 0; i < 2*n; i++ {
		if _, err := other.Receive(ctx); err != nil {
			t.Fatalf("the other subscriber received %d of %d messages: %v", i, 2*n, err)
		}
	}
}
