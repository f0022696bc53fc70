package wire

import (
	"bytes"
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

// TestEgressProducerOrder: the pump's bursts, control replies and peer-link
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
	go func() { // the delivery pump, in bursts
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
