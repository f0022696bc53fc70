package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
)

func TestForwardCodecRoundTrip(t *testing.T) {
	m := jms.NewMessage("t")
	_ = m.SetCorrelationID("#3")
	m.SetBody([]byte("hello"))
	inner := EncodeMessage(m)

	for _, h := range []ForwardHeader{
		{Origin: 0, Hops: 1},
		{Origin: 7, Hops: 1, Batch: true},
		{Origin: 1<<32 - 1, Hops: MaxForwardHops},
	} {
		payload := AppendForward(nil, h, inner)
		got, gotInner, err := DecodeForward(payload)
		if err != nil {
			t.Fatalf("DecodeForward(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("header = %+v, want %+v", got, h)
		}
		if !bytes.Equal(gotInner, inner) {
			t.Fatal("inner bytes changed")
		}
	}
}

func TestForwardDecodeErrors(t *testing.T) {
	inner := []byte{1}
	cases := map[string][]byte{
		"truncated header": {0, 0, 0, 1, 1},
		"zero hops":        AppendForward(nil, ForwardHeader{Hops: 0}, inner),
		"excess hops":      AppendForward(nil, ForwardHeader{Hops: MaxForwardHops + 1}, inner),
		"unknown flags":    {0, 0, 0, 0, 1, 0x80, 1},
		"empty inner":      AppendForward(nil, ForwardHeader{Hops: 1}, nil),
	}
	for name, payload := range cases {
		if _, _, err := DecodeForward(payload); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// recordingForwarder captures ingress-hook invocations, counted by the
// batch flag, and vetoes the local publish when local is false. Its
// forwards complete on their own: at once, or when the test sends on hold
// if that is set.
type recordingForwarder struct {
	publishes atomic.Uint64
	batches   atomic.Uint64
	local     atomic.Bool
	fail      atomic.Bool
	hold      chan struct{} // nil: complete synchronously
}

func (f *recordingForwarder) Start(msgs []*jms.Message, batch bool, raw []byte) (bool, *ForwardAck) {
	if batch {
		f.batches.Add(1)
	} else {
		f.publishes.Add(1)
	}
	var err error
	if f.fail.Load() {
		err = errors.New("forward path down")
	}
	ack := NewForwardAck(1)
	if f.hold == nil {
		ack.complete(err)
	} else {
		go func() {
			<-f.hold
			ack.complete(err)
		}()
	}
	return f.local.Load(), ack
}

func startForwardServer(t *testing.T, fw Forwarder) (*rawConn, *broker.Broker, *Server) {
	t.Helper()
	b := broker.New(broker.Options{})
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(b, ln, ServeOptions{Forwarder: fw})
	t.Cleanup(func() {
		_ = srv.Close()
		_ = b.Close()
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, conn: conn}, b, srv
}

// TestServerForwardRaw drives the FORWARD frame path: a forwarded publish
// and a forwarded batch must be applied to the local broker (delivered to
// a live subscriber, counted by ForwardsIn) without ever reaching the
// configured Forwarder — the loop-suppression contract.
func TestServerForwardRaw(t *testing.T) {
	fw := &recordingForwarder{}
	fw.local.Store(true)
	rc, _, srv := startForwardServer(t, fw)

	reqID := rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{Mode: FilterNone}))
	ok := rc.read()
	if ok.Type != FrameSubscribeOK || binary.BigEndian.Uint64(ok.Payload) != reqID {
		t.Fatalf("frame = %v", ok.Type)
	}

	m := jms.NewMessage("t")
	m.SetBody([]byte("forwarded"))
	fwdReq := rc.request(FrameForward,
		AppendForward(nil, ForwardHeader{Origin: 1, Hops: 1}, EncodeMessage(m)))

	m2 := jms.NewMessage("t")
	m2.SetBody([]byte("batched"))
	batchReq := rc.request(FrameForward,
		AppendForward(nil, ForwardHeader{Origin: 1, Hops: 1, Batch: true},
			EncodeBatch([]*jms.Message{m2})))

	acks, deliveries := 0, 0
	for i := 0; i < 4; i++ {
		f := rc.read()
		switch f.Type {
		case FramePubAck:
			if id := binary.BigEndian.Uint64(f.Payload); id != fwdReq && id != batchReq {
				t.Fatalf("ack for unknown request %d", id)
			}
			acks++
		case FrameMessage:
			deliveries++
		default:
			t.Fatalf("unexpected frame %v", f.Type)
		}
	}
	if acks != 2 || deliveries != 2 {
		t.Fatalf("acks=%d deliveries=%d, want 2/2", acks, deliveries)
	}
	if got := srv.ForwardsIn(); got != 2 {
		t.Fatalf("ForwardsIn = %d, want 2", got)
	}
	if fw.publishes.Load() != 0 || fw.batches.Load() != 0 {
		t.Fatal("FORWARD frames leaked into the Forwarder hook")
	}

	// A malformed forward (hop count out of range) drops the connection.
	rc.request(FrameForward, AppendForward(nil, ForwardHeader{Hops: 0}, EncodeMessage(m)))
	if _, err := ReadFrame(rc.conn); err == nil {
		t.Fatal("want connection drop on malformed forward")
	}
}

// TestServerForwarderHook exercises the client-publish ingress hook: the
// forwarder sees every PUBLISH and BATCH, its local veto suppresses the
// broker publish while still acking, and its error rejects the publish.
func TestServerForwarderHook(t *testing.T) {
	fw := &recordingForwarder{}
	fw.local.Store(true)
	rc, b, _ := startForwardServer(t, fw)

	m := jms.NewMessage("t")
	m.SetBody([]byte("x"))

	expectAck := func(reqID uint64) {
		t.Helper()
		f := rc.read()
		if f.Type != FramePubAck || binary.BigEndian.Uint64(f.Payload) != reqID {
			t.Fatalf("frame = %v, want PUB_ACK for %d", f.Type, reqID)
		}
	}

	// local=true: hook sees it, broker publishes it.
	expectAck(rc.request(FramePublish, EncodeMessage(m)))
	expectAck(rc.request(FrameBatch, EncodeBatch([]*jms.Message{m})))
	if fw.publishes.Load() != 1 || fw.batches.Load() != 1 {
		t.Fatalf("hook calls = %d/%d, want 1/1", fw.publishes.Load(), fw.batches.Load())
	}
	if got := b.Stats().Received; got != 2 {
		t.Fatalf("broker received %d, want 2", got)
	}

	// local=false: acked but not published locally.
	fw.local.Store(false)
	expectAck(rc.request(FramePublish, EncodeMessage(m)))
	expectAck(rc.request(FrameBatch, EncodeBatch([]*jms.Message{m})))
	if got := b.Stats().Received; got != 2 {
		t.Fatalf("vetoed publish reached the broker: received %d", got)
	}

	// error: the publish is rejected with an ERROR frame.
	fw.fail.Store(true)
	rc.expectError(rc.request(FramePublish, EncodeMessage(m)))
	rc.expectError(rc.request(FrameBatch, EncodeBatch([]*jms.Message{m})))
	if got := b.Stats().Received; got != 2 {
		t.Fatalf("failed publish reached the broker: received %d", got)
	}
}

// TestServerPublishShapesDeliverOnce sends one message in each shape that
// reaches the publish ingress — PUBLISH, a one-message BATCH, and a
// FORWARD of each — and checks that every one is delivered once and acked
// once, and that only the two client frames reach the Forwarder, counted by
// their batch flag.
func TestServerPublishShapesDeliverOnce(t *testing.T) {
	fw := &recordingForwarder{}
	fw.local.Store(true)
	rc, b, srv := startForwardServer(t, fw)
	rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{Mode: FilterNone}))
	if f := rc.read(); f.Type != FrameSubscribeOK {
		t.Fatalf("reply = %v, want SUBSCRIBE_OK", f.Type)
	}

	var seq int64
	single := func(body string) []byte {
		seq++
		return EncodeMessage(stamped("p", seq, body))
	}
	batch := func(body string) []byte {
		seq++
		return EncodeBatch([]*jms.Message{stamped("p", seq, body)})
	}
	reqs := map[uint64]string{}
	reqs[rc.request(FramePublish, single("publish"))] = "publish"
	reqs[rc.request(FrameBatch, batch("batch-of-one"))] = "batch-of-one"
	reqs[rc.request(FrameForward, AppendForward(nil, ForwardHeader{Origin: 1, Hops: 1},
		single("forward")))] = "forward"
	reqs[rc.request(FrameForward, AppendForward(nil, ForwardHeader{Origin: 1, Hops: 1, Batch: true},
		batch("forward-batch-of-one")))] = "forward-batch-of-one"
	acks, delivered := map[string]int{}, map[string]int{}
	for i := 0; i < 2*len(reqs); i++ {
		f := rc.read()
		switch f.Type {
		case FramePubAck:
			acks[reqs[binary.BigEndian.Uint64(f.Payload)]]++
		case FrameMessage:
			_, _, m, err := DecodeDelivery(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			delivered[string(m.Body)]++
		default:
			t.Fatalf("unexpected frame %v", f.Type)
		}
	}
	for _, name := range reqs {
		if acks[name] != 1 || delivered[name] != 1 {
			t.Errorf("%s: %d acks, %d deliveries; want 1 and 1", name, acks[name], delivered[name])
		}
	}
	if st := b.Stats(); st.Received != 4 || st.Dispatched != 4 {
		t.Errorf("broker received %d, dispatched %d; want 4 and 4", st.Received, st.Dispatched)
	}
	if got := srv.ForwardsIn(); got != 2 {
		t.Errorf("ForwardsIn = %d, want 2", got)
	}
	if p, bt := fw.publishes.Load(), fw.batches.Load(); p != 1 || bt != 1 {
		t.Errorf("Forwarder saw %d publishes and %d batches, want 1 and 1", p, bt)
	}
}

// TestServerDuplicateBatchSkipsForwarder resends a stamped BATCH whose
// members were all published before: it is acked without reaching the
// Forwarder or the broker, as a duplicate PUBLISH is.
func TestServerDuplicateBatchSkipsForwarder(t *testing.T) {
	fw := &recordingForwarder{}
	fw.local.Store(true)
	rc, b, srv := startForwardServer(t, fw)
	body := EncodeBatch([]*jms.Message{stamped("p", 1, "one"), stamped("p", 2, "two")})
	for i := 0; i < 2; i++ {
		req := rc.request(FrameBatch, body)
		if f := rc.read(); f.Type != FramePubAck || binary.BigEndian.Uint64(f.Payload) != req {
			t.Fatalf("send %d: reply = %v, want PUB_ACK for %d", i, f.Type, req)
		}
	}
	if got := fw.batches.Load(); got != 1 {
		t.Errorf("Forwarder saw %d batches, want only the first", got)
	}
	if got := b.Stats().Received; got != 2 {
		t.Errorf("broker received %d, want 2", got)
	}
	if got := srv.DuplicatesSuppressed(); got != 2 {
		t.Errorf("DuplicatesSuppressed = %d, want 2", got)
	}
}

// stamped returns a message carrying a publish-dedupe identity.
func stamped(pub string, seq int64, body string) *jms.Message {
	m := jms.NewMessage("t")
	_ = m.SetStringProperty(PubIDProperty, pub)
	_ = m.SetInt64Property(PubSeqProperty, seq)
	m.SetBody([]byte(body))
	return m
}

// TestServerParkedPublishes drives the window with a forwarder whose
// forwards complete only when the test says so: parked publishes are
// neither acked nor published before their forward completes, PING is
// answered past them, SUBSCRIBE waits for them, commits and acks come in
// arrival order, and a publish with nothing to
// forward queues behind parked ones instead of overtaking them.
func TestServerParkedPublishes(t *testing.T) {
	fw := &recordingForwarder{hold: make(chan struct{})}
	fw.local.Store(true)
	rc, b, _ := startForwardServer(t, fw)

	first := rc.request(FramePublish, EncodeMessage(stamped("p", 1, "one")))
	second := rc.request(FrameBatch, EncodeBatch([]*jms.Message{stamped("p", 2, "two"), stamped("p", 3, "three")}))
	// A forwarded frame never has forwards of its own; it still may not
	// overtake the two parked publishes.
	third := rc.request(FrameForward, AppendForward(nil, ForwardHeader{Origin: 1, Hops: 1}, EncodeMessage(stamped("q", 1, "four"))))
	if err := WriteFrame(rc.conn, Frame{Type: FramePing}); err != nil {
		t.Fatal(err)
	}
	sub := rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{Mode: FilterNone}))

	if f := rc.read(); f.Type != FramePong {
		t.Fatalf("first reply = %v, want PONG past the parked publishes", f.Type)
	}
	if got := b.Stats().Received; got != 0 {
		t.Fatalf("broker received %d messages before any forward completed", got)
	}

	fw.hold <- struct{}{}
	fw.hold <- struct{}{}
	for _, want := range []uint64{first, second, third} {
		f := rc.read()
		if f.Type != FramePubAck || binary.BigEndian.Uint64(f.Payload) != want {
			t.Fatalf("reply = %v for %d, want PUB_ACK for %d", f.Type, binary.BigEndian.Uint64(f.Payload), want)
		}
	}
	// SUBSCRIBE waited for the parked publishes, so its reply follows their
	// acks. (The broker acks at admission, so the new subscription may still
	// be handed some of them — as it may without a forwarder.)
	f := rc.read()
	for f.Type == FrameMessage {
		f = rc.read()
	}
	if f.Type != FrameSubscribeOK || binary.BigEndian.Uint64(f.Payload) != sub {
		t.Fatalf("reply = %v, want SUBSCRIBE_OK", f.Type)
	}
	if got := b.Stats().Received; got != 4 {
		t.Fatalf("broker received %d, want 4", got)
	}
}

// TestServerParkedPublishRejected fails a parked publish's forward: the
// client gets ERROR, nothing reaches the broker, and the dedupe claims are
// released — the retry of the same sequences is published, not swallowed.
func TestServerParkedPublishRejected(t *testing.T) {
	fw := &recordingForwarder{hold: make(chan struct{})}
	fw.local.Store(true)
	fw.fail.Store(true)
	rc, b, srv := startForwardServer(t, fw)

	single := rc.request(FramePublish, EncodeMessage(stamped("p", 1, "one")))
	batch := rc.request(FrameBatch, EncodeBatch([]*jms.Message{stamped("p", 2, "two"), stamped("p", 3, "three")}))
	fw.hold <- struct{}{}
	fw.hold <- struct{}{}
	rc.expectError(single)
	rc.expectError(batch)
	if got := b.Stats().Received; got != 0 {
		t.Fatalf("rejected publishes reached the broker: received %d", got)
	}

	fw.fail.Store(false)
	single = rc.request(FramePublish, EncodeMessage(stamped("p", 1, "one")))
	batch = rc.request(FrameBatch, EncodeBatch([]*jms.Message{stamped("p", 2, "two"), stamped("p", 3, "three")}))
	fw.hold <- struct{}{}
	fw.hold <- struct{}{}
	for _, want := range []uint64{single, batch} {
		if f := rc.read(); f.Type != FramePubAck || binary.BigEndian.Uint64(f.Payload) != want {
			t.Fatalf("retry reply = %v, want PUB_ACK for %d", f.Type, want)
		}
	}
	if got := b.Stats().Received; got != 3 {
		t.Fatalf("broker received %d of the 3 retried messages", got)
	}
	if got := srv.DuplicatesSuppressed(); got != 0 {
		t.Fatalf("%d retries swallowed as duplicates", got)
	}
}

// TestServerTeardownCommitsParked cuts the client connection with publishes
// parked: teardown waits for their forwards and commits them — an admitted
// publish is never abandoned — and only then does Close return.
func TestServerTeardownCommitsParked(t *testing.T) {
	fw := &recordingForwarder{hold: make(chan struct{})}
	fw.local.Store(true)
	rc, b, srv := startForwardServer(t, fw)

	rc.request(FramePublish, EncodeMessage(stamped("p", 1, "one")))
	rc.request(FrameBatch, EncodeBatch([]*jms.Message{stamped("p", 2, "two")}))
	for fw.publishes.Load()+fw.batches.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	_ = rc.conn.Close()

	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("server closed with publishes still parked")
	case <-time.After(50 * time.Millisecond):
	}
	fw.hold <- struct{}{}
	fw.hold <- struct{}{}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not close after the parked publishes completed")
	}
	if got := b.Stats().Received; got != 2 {
		t.Fatalf("broker received %d of the 2 parked messages", got)
	}
}

// nothingToForward is the PSR shape of a Forwarder: consulted, never sends.
type nothingToForward struct{}

func (nothingToForward) Start([]*jms.Message, bool, []byte) (bool, *ForwardAck) { return true, nil }

// TestServerNothingToForwardStaysInline pins the inline path: a forwarder
// that never sends anything costs the connection no commit loop.
func TestServerNothingToForwardStaysInline(t *testing.T) {
	rc, b, _ := startForwardServer(t, nothingToForward{})
	m := jms.NewMessage("t")
	rc.request(FramePublish, EncodeMessage(m))
	rc.read()
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		rc.request(FramePublish, EncodeMessage(m))
		rc.request(FrameBatch, EncodeBatch([]*jms.Message{m, m}))
	}
	for i := 0; i < 16; i++ {
		if f := rc.read(); f.Type != FramePubAck {
			t.Fatalf("reply = %v", f.Type)
		}
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines grew from %d to %d on the inline path", before, got)
	}
	if got := b.Stats().Received; got != 25 {
		t.Fatalf("broker received %d, want 25", got)
	}
}
