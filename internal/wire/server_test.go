package wire

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
)

// rawConn speaks the wire protocol directly, without the client package,
// so the server's frame handling is exercised (and covered) here.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	next uint64
}

func startRawServer(t *testing.T) (*rawConn, *broker.Broker, *Server) {
	t.Helper()
	b := broker.New(broker.Options{})
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(b, ln)
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

// request sends a frame with a fresh request ID and returns (reqID).
func (rc *rawConn) request(typ FrameType, inner []byte) uint64 {
	rc.t.Helper()
	rc.next++
	payload := make([]byte, 8, 8+len(inner))
	binary.BigEndian.PutUint64(payload, rc.next)
	payload = append(payload, inner...)
	if err := WriteFrame(rc.conn, Frame{Type: typ, Payload: payload}); err != nil {
		rc.t.Fatal(err)
	}
	return rc.next
}

func (rc *rawConn) read() Frame {
	rc.t.Helper()
	f, err := ReadFrame(rc.conn)
	if err != nil {
		rc.t.Fatal(err)
	}
	return f
}

func (rc *rawConn) expectError(reqID uint64) string {
	rc.t.Helper()
	f := rc.read()
	if f.Type != FrameError {
		rc.t.Fatalf("frame = %v, want ERROR", f.Type)
	}
	gotID, msg, err := DecodeError(f.Payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	if gotID != reqID {
		rc.t.Fatalf("error reqID = %d, want %d", gotID, reqID)
	}
	return msg
}

func TestServerPublishSubscribeRaw(t *testing.T) {
	rc, _, _ := startRawServer(t)

	// Subscribe with a correlation-ID filter.
	reqID := rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{
		Mode: FilterCorrelationID, Expr: "#0",
	}))
	ok := rc.read()
	if ok.Type != FrameSubscribeOK {
		t.Fatalf("frame = %v", ok.Type)
	}
	if got := binary.BigEndian.Uint64(ok.Payload); got != reqID {
		t.Fatalf("reqID echo = %d", got)
	}
	subID := binary.BigEndian.Uint64(ok.Payload[8:])

	// Publish a matching message on the same connection.
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("#0"); err != nil {
		t.Fatal(err)
	}
	pubReq := rc.request(FramePublish, EncodeMessage(m))

	// Expect PUB_ACK and MESSAGE in some order.
	sawAck, sawMsg := false, false
	for i := 0; i < 2; i++ {
		f := rc.read()
		switch f.Type {
		case FramePubAck:
			if binary.BigEndian.Uint64(f.Payload) != pubReq {
				t.Fatal("ack for wrong request")
			}
			sawAck = true
		case FrameMessage:
			gotSub, _, gotMsg, err := DecodeDelivery(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if gotSub != subID {
				t.Fatalf("delivery subID = %d, want %d", gotSub, subID)
			}
			if gotMsg.Header.CorrelationID != "#0" {
				t.Fatalf("delivered corrID = %q", gotMsg.Header.CorrelationID)
			}
			sawMsg = true
		default:
			t.Fatalf("unexpected frame %v", f.Type)
		}
	}
	if !sawAck || !sawMsg {
		t.Fatal("missing ack or delivery")
	}

	// Unsubscribe and verify removal.
	unReq := rc.request(FrameUnsubscribe, EncodeU64(subID))
	f := rc.read()
	if f.Type != FrameUnsubscribeOK || binary.BigEndian.Uint64(f.Payload) != unReq {
		t.Fatalf("frame = %v", f.Type)
	}
	// Unsubscribing again reports an error.
	again := rc.request(FrameUnsubscribe, EncodeU64(subID))
	rc.expectError(again)
}

func TestServerErrorPathsRaw(t *testing.T) {
	rc, _, _ := startRawServer(t)

	// Unknown frame type.
	reqID := rc.request(FrameType(99), nil)
	rc.expectError(reqID)

	// Publish to a missing topic.
	reqID = rc.request(FramePublish, EncodeMessage(jms.NewMessage("missing")))
	rc.expectError(reqID)

	// Subscribe with a bad filter mode.
	reqID = rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{Mode: FilterMode(9)}))
	rc.expectError(reqID)

	// Subscribe with a bad selector.
	reqID = rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{Mode: FilterSelector, Expr: "a ="}))
	rc.expectError(reqID)

	// Duplicate topic configuration.
	reqID = rc.request(FrameConfigureTopic, EncodeString("t"))
	rc.expectError(reqID)

	// New topic succeeds.
	reqID = rc.request(FrameConfigureTopic, EncodeString("t2"))
	f := rc.read()
	if f.Type != FrameConfigureTopicOK || binary.BigEndian.Uint64(f.Payload) != reqID {
		t.Fatalf("frame = %v", f.Type)
	}

	// Delete of an unknown durable subscription.
	payload := EncodeString("t")
	payload = append(payload, EncodeString("ghost")...)
	reqID = rc.request(FrameDeleteDurable, payload)
	rc.expectError(reqID)
}

func TestServerPingRaw(t *testing.T) {
	rc, _, _ := startRawServer(t)
	if err := WriteFrame(rc.conn, Frame{Type: FramePing}); err != nil {
		t.Fatal(err)
	}
	if f := rc.read(); f.Type != FramePong {
		t.Fatalf("frame = %v, want PONG", f.Type)
	}
}

func TestServerDurableRaw(t *testing.T) {
	rc, b, _ := startRawServer(t)
	reqID := rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{
		Mode: FilterNone, DurableName: "d",
	}))
	ok := rc.read()
	if ok.Type != FrameSubscribeOK {
		t.Fatalf("frame = %v", ok.Type)
	}
	_ = reqID
	if attached, err := b.DurableAttached("t", "d"); err != nil || !attached {
		t.Fatalf("durable not attached: %v", err)
	}
	// Deleting while attached fails.
	payload := EncodeString("t")
	payload = append(payload, EncodeString("d")...)
	delReq := rc.request(FrameDeleteDurable, payload)
	rc.expectError(delReq)
}

func TestServerMalformedFrameDropsConnection(t *testing.T) {
	rc, _, _ := startRawServer(t)
	// A SUBSCRIBE frame whose payload is too short to hold a request ID
	// terminates the connection.
	if err := WriteFrame(rc.conn, Frame{Type: FrameSubscribe, Payload: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(rc.conn); err == nil {
		t.Fatal("connection survived malformed frame")
	}
}

func TestServerDisconnectCleansUpRaw(t *testing.T) {
	rc, b, _ := startRawServer(t)
	rc.request(FrameSubscribe, EncodeSubscribe("t", FilterSpec{Mode: FilterNone}))
	if f := rc.read(); f.Type != FrameSubscribeOK {
		t.Fatalf("frame = %v", f.Type)
	}
	if b.NumFilters() != 1 {
		t.Fatalf("NumFilters = %d", b.NumFilters())
	}
	_ = rc.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.NumFilters() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("NumFilters = %d after disconnect", b.NumFilters())
}

func TestServerDoubleClose(t *testing.T) {
	b := broker.New(broker.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(b, ln)
	if srv.Addr() == nil {
		t.Error("nil Addr")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err == nil {
		t.Error("double Close accepted")
	}
	_ = b.Close()
}

// TestServerPublisherKeys: a publish is served by the dispatch worker its
// publisher key selects. Two connections stamping one publisher identity
// land on one worker, so a retry on a new connection queues behind the
// older messages; two unstamped connections with consecutive ids land on
// different workers of a two-worker topic.
func TestServerPublisherKeys(t *testing.T) {
	b := broker.New(broker.Options{Engine: broker.EngineFast, Shards: 2, WaitTiming: true})
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	b.TakeTape("t") // arm the tape
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(b, ln)
	t.Cleanup(func() {
		_ = srv.Close()
		_ = b.Close()
	})
	dial := func() *rawConn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return &rawConn{t: t, conn: conn}
	}
	// workerOf publishes one message, stamped with (pub, seq) unless pub
	// is empty, and returns the worker its tape entry names.
	workerOf := func(rc *rawConn, pub string, seq int64) int {
		t.Helper()
		m := jms.NewMessage("t")
		if pub != "" {
			if err := m.SetStringProperty(PubIDProperty, pub); err != nil {
				t.Fatal(err)
			}
			if err := m.SetInt64Property(PubSeqProperty, seq); err != nil {
				t.Fatal(err)
			}
		}
		req := rc.request(FramePublish, EncodeMessage(m))
		if f := rc.read(); f.Type != FramePubAck || binary.BigEndian.Uint64(f.Payload) != req {
			t.Fatalf("frame = %v, want PUB_ACK %d", f.Type, req)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if tape, _ := b.TakeTape("t"); len(tape) > 0 {
				if len(tape) != 1 {
					t.Fatalf("tape holds %d entries for one publish", len(tape))
				}
				return tape[0].Worker
			}
			if time.Now().After(deadline) {
				t.Fatal("publish never reached the tape")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Each connection publishes before the next is dialled, so their ids
	// are consecutive.
	first := dial()
	w1 := workerOf(first, "", 0)
	second := dial()
	if w2 := workerOf(second, "", 0); w1 == w2 {
		t.Errorf("unstamped connections with consecutive ids both on worker %d", w1)
	}
	pinned := workerOf(first, "publisher-A", 1)
	if w := workerOf(second, "publisher-A", 2); w != pinned {
		t.Errorf("publisher-A on worker %d over one connection and %d over the other", pinned, w)
	}
}
