package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/jms"
)

// subscribe installs a subscription on topic t and returns its ID.
func (rc *rawConn) subscribe(spec FilterSpec) uint64 {
	rc.t.Helper()
	rc.request(FrameSubscribe, EncodeSubscribe("t", spec))
	f := rc.read()
	if f.Type != FrameSubscribeOK {
		rc.t.Fatalf("frame = %v, want SUBSCRIBE_OK", f.Type)
	}
	return binary.BigEndian.Uint64(f.Payload[8:])
}

// publishFor publishes a message with the given correlation ID, as body too,
// and returns the one delivery frame that comes back beside its PUB_ACK.
func (rc *rawConn) publishFor(corrID string) Frame {
	rc.t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID(corrID); err != nil {
		rc.t.Fatal(err)
	}
	m.SetBody([]byte(corrID))
	req := rc.request(FramePublish, EncodeMessage(m))
	var delivery *Frame
	for i := 0; i < 2; i++ {
		f := rc.read()
		switch {
		case f.Type == FramePubAck && binary.BigEndian.Uint64(f.Payload) == req:
		case delivery == nil:
			delivery = &f
		default:
			rc.t.Fatalf("a second delivery frame (%v) for one message", f.Type)
		}
	}
	if delivery == nil {
		rc.t.Fatal("no delivery frame")
	}
	return *delivery
}

// TestServerFanoutOncePerConnection: a message matching several
// subscriptions of one connection crosses it once, as one MESSAGE_FANOUT
// frame naming each of them, with sequence 0 also for the one that asked
// for acks without being durable; a message matching one subscription is
// still a MESSAGE frame.
func TestServerFanoutOncePerConnection(t *testing.T) {
	rc, _, srv := startRawServer(t)
	hot := FilterSpec{Mode: FilterCorrelationID, Expr: "#hot"}
	first, second := rc.subscribe(hot), rc.subscribe(hot)
	hot.Acked = true
	acked := rc.subscribe(hot)
	lone := rc.subscribe(FilterSpec{Mode: FilterCorrelationID, Expr: "#lone"})

	framesOut := srv.WireStats().FramesOut
	f := rc.publishFor("#hot")
	if f.Type != FrameFanout {
		t.Fatalf("frame = %v, want MESSAGE_FANOUT", f.Type)
	}
	refs, m, err := DecodeFanout(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := []DeliveryRef{{SubID: first}, {SubID: second}, {SubID: acked}}
	if !reflect.DeepEqual(refs, want) || string(m.Body) != "#hot" {
		t.Fatalf("fanout to %v with body %q, want %v and #hot", refs, m.Body, want)
	}
	if n := srv.WireStats().FramesOut - framesOut; n != 2 {
		t.Errorf("%d frames out for one message to three subscriptions, want 2: the delivery and PUB_ACK", n)
	}

	f = rc.publishFor("#lone")
	subID, seq, m, err := DecodeDelivery(f.Payload)
	if f.Type != FrameMessage || err != nil || subID != lone || seq != 0 || string(m.Body) != "#lone" {
		t.Fatalf("frame %v (err %v) for subscription %d seq %d, want a MESSAGE for %d", f.Type, err, subID, seq, lone)
	}
}

// TestServerAckedNeedsDurable: only a durable subscription is acked. A
// SUBSCRIBE asking for acks without a durable name is served as a plain
// subscription — no unacked table, deliveries with sequence 0, so its
// client sends no MSG_ACK — while a durable one gets its table.
func TestServerAckedNeedsDurable(t *testing.T) {
	b := broker.New(broker.Options{})
	t.Cleanup(func() { _ = b.Close() })
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	h := newDeliveryHarness(t, nil)
	sc := h.sc
	sc.server.broker = b
	sc.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	sc.out = b.NewOutbox()
	sc.subs = map[uint64]*connSub{}
	subscribe := func(spec FilterSpec) *connSub {
		t.Helper()
		payload := append(EncodeU64(1), EncodeSubscribe("t", spec)...)
		if err := sc.handleFrame(Frame{Type: FrameSubscribe, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := h.fr.Next()
		if err != nil || f.Type != FrameSubscribeOK {
			t.Fatalf("frame %v (%v), want SUBSCRIBE_OK", f.Type, err)
		}
		return sc.subs[binary.BigEndian.Uint64(f.Payload[8:])]
	}
	plain := subscribe(FilterSpec{Mode: FilterNone, Acked: true})
	durable := subscribe(FilterSpec{Mode: FilterCorrelationID, Expr: "never", DurableName: "d", Acked: true})
	if plain.acked || plain.unacked != nil {
		t.Errorf("non-durable acked subscription: acked %v with table %v, want a plain one", plain.acked, plain.unacked)
	}
	if !durable.acked || durable.unacked == nil {
		t.Errorf("durable acked subscription: acked %v with table %v, want acked with a table", durable.acked, durable.unacked)
	}

	if err := b.Publish(context.Background(), jms.NewMessage("t")); err != nil {
		t.Fatal(err)
	}
	<-sc.out.Ready()
	refs, _ := stageDeliveries(sc.out.Take(nil, deliveryCoalesce), nil, nil)
	if len(refs) != 1 || refs[0] != (DeliveryRef{SubID: plain.id}) || len(plain.unacked) != 0 {
		t.Errorf("delivery refs %v, unacked %v; want one with sequence 0 and no table entry", refs, plain.unacked)
	}
	for _, cs := range sc.subs {
		if err := sc.finish(cs); err != nil {
			t.Error(err)
		}
	}
}

// TestServerOnePumpPerConnection: a connection's deliveries leave through
// its one writer however many subscriptions it holds, so subscribing starts
// no goroutine. Nor does attaching a durable consumer, whose backlog refills
// the connection's outbox, nor an in-process subscription until its Chan
// adapter is asked for.
func TestServerOnePumpPerConnection(t *testing.T) {
	rc, b, _ := startRawServer(t)
	spec := FilterSpec{Mode: FilterCorrelationID, Expr: "never"}
	rc.subscribe(spec)
	const n = 200
	grows := func(what string, do func()) {
		t.Helper()
		before := runtime.NumGoroutine()
		do()
		if grown := runtime.NumGoroutine() - before; grown > 4 {
			t.Errorf("%s started %d goroutines", what, grown)
		}
	}
	grows("200 subscriptions on one connection", func() {
		for i := 0; i < n; i++ {
			rc.subscribe(spec)
		}
	})

	// Each durable subscription has one pump of its own, started when it is
	// first made; its consumer's attach and detach start none.
	durable := spec
	ids := make([]uint64, n)
	for i := range ids {
		durable.DurableName = "d" + strconv.Itoa(i)
		ids[i] = rc.subscribe(durable)
	}
	unsubscribeAll := func() {
		for _, id := range ids {
			req := rc.request(FrameUnsubscribe, EncodeU64(id))
			if f := rc.read(); f.Type != FrameUnsubscribeOK || binary.BigEndian.Uint64(f.Payload) != req {
				t.Fatalf("frame %v, want UNSUBSCRIBE_OK", f.Type)
			}
		}
	}
	unsubscribeAll()
	grows("200 durable attaches on one connection", func() {
		for i := range ids {
			durable.DurableName = "d" + strconv.Itoa(i)
			ids[i] = rc.subscribe(durable)
		}
	})
	unsubscribeAll()

	subs := make([]*broker.Subscriber, n)
	grows("200 in-process subscriptions", func() {
		for i := range subs {
			var err error
			if subs[i], err = b.Subscribe("t", nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	before := runtime.NumGoroutine()
	for _, s := range subs[:n/2] {
		s.Chan()
	}
	if grown := runtime.NumGoroutine() - before; grown < n/2 {
		t.Errorf("Chan on %d in-process subscriptions started %d goroutines, want one each", n/2, grown)
	}
}

// TestEgressServedConnTwoGoroutines: a served connection runs two
// goroutines, its read loop and its writer, which also takes the deliveries
// off the connection's outbox; a subscription and a delivery start no more,
// and the connection's end ends both. It is the server's twin of
// client.TestDialStartsTwoGoroutines. (commitLoop, a connection's third,
// starts only with its first forwarded publish.)
func TestEgressServedConnTwoGoroutines(t *testing.T) {
	rc, _, srv := startRawServer(t)
	served := func() (n int) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "wire.(*Server).handleConn") || strings.Contains(g, "wire.(*serverConn)") || strings.Contains(g, "wire.(*connWriter).run") {
				n++
			}
		}
		return n
	}
	settled := func(want int) bool {
		for i := 0; i < 10000 && served() != want; i++ {
			runtime.Gosched()
		}
		return served() == want
	}
	ping := func(rc *rawConn) {
		t.Helper()
		req := rc.request(FramePing, nil)
		if f := rc.read(); f.Type != FramePong || binary.BigEndian.Uint64(f.Payload) != req {
			t.Fatalf("frame %v, want the PONG", f.Type)
		}
	}
	ping(rc) // rc's connection is served
	before := served()
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	second := &rawConn{t: t, conn: conn}
	ping(second)
	if !settled(before + 2) {
		t.Fatalf("a served connection runs %d goroutines, want 2: the read loop and the writer", served()-before)
	}
	second.subscribe(FilterSpec{Mode: FilterNone})
	second.publishFor("#x")
	if !settled(before + 2) {
		t.Errorf("after a subscription and a delivery the connection runs %d goroutines, want 2", served()-before)
	}
	_ = conn.Close()
	if !settled(before) {
		t.Errorf("%d goroutines of a closed connection are still running", served()-before)
	}
}

// TestFanoutRoundTrip: a MESSAGE_FANOUT payload names every subscription
// with its sequence and decodes to the same message through both decoders;
// a fanout to nobody, or one counting past its payload, is refused.
func TestFanoutRoundTrip(t *testing.T) {
	m := newRichMessage(t)
	refs := []DeliveryRef{{SubID: 3}, {SubID: 9, Seq: 41}, {SubID: 12}}
	payload := AppendFanout(nil, refs, m)
	gotRefs, got, err := DecodeFanout(payload)
	if err != nil || !reflect.DeepEqual(gotRefs, refs) || !bytes.Equal(EncodeMessage(got), EncodeMessage(m)) {
		t.Fatalf("DecodeFanout: subscriptions %v, err %v", gotRefs, err)
	}
	arenaRefs, v, err := ParseFanout(nil, payload)
	var fromArena jms.Message
	if err == nil {
		err = NewMessageArena().MaterializeInto(&fromArena, &v)
	}
	if err != nil || !reflect.DeepEqual(arenaRefs, refs) || !bytes.Equal(EncodeMessage(&fromArena), EncodeMessage(m)) {
		t.Fatalf("ParseFanout + MaterializeInto: subscriptions %v, err %v", arenaRefs, err)
	}
	for name, bad := range map[string][]byte{
		"no subscription":    AppendFanout(nil, nil, m),
		"count past payload": binary.BigEndian.AppendUint32(nil, 1<<20),
	} {
		if _, _, err := DecodeFanout(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestServerFanoutWithinFrameLimit: a message that fits a MESSAGE frame but
// not a MESSAGE_FANOUT frame naming all of its subscriptions is split over
// frames that fit. One too large for even a MESSAGE frame closes the
// connection, whose subscriptions could receive nothing more, instead of
// leaving it open with no delivery path.
func TestServerFanoutWithinFrameLimit(t *testing.T) {
	rc, _, _ := startRawServer(t)
	spec := FilterSpec{Mode: FilterCorrelationID, Expr: "#big"}
	subs := []uint64{rc.subscribe(spec), rc.subscribe(spec), rc.subscribe(spec)}
	// 40 bytes short of the limit: room for a fanout head of two
	// subscriptions (4 + 2·16 bytes), not three.
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("#big"); err != nil {
		t.Fatal(err)
	}
	m.SetBody(make([]byte, MaxFrameSize-40-len(EncodeMessage(m))))
	req := rc.request(FramePublish, EncodeMessage(m))
	var got [][]DeliveryRef
	for acked := false; !acked || len(got) < 2; {
		f := rc.read()
		switch f.Type {
		case FramePubAck:
			acked = binary.BigEndian.Uint64(f.Payload) == req
		case FrameFanout:
			refs, _, err := DecodeFanout(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, refs)
		case FrameMessage:
			subID, seq, _, err := DecodeDelivery(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, []DeliveryRef{{SubID: subID, Seq: seq}})
		default:
			t.Fatalf("unexpected %v frame", f.Type)
		}
	}
	want := [][]DeliveryRef{{{SubID: subs[0]}, {SubID: subs[1]}}, {{SubID: subs[2]}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered as %v, want %v", got, want)
	}

	// The largest publish the server accepts leaves no room for a
	// delivery's subscription ID and sequence.
	spec.Expr = "#huge"
	rc.subscribe(spec)
	if err := m.SetCorrelationID("#huge"); err != nil {
		t.Fatal(err)
	}
	m.SetBody(nil)
	m.SetBody(make([]byte, MaxFrameSize-8-len(EncodeMessage(m))))
	rc.request(FramePublish, EncodeMessage(m))
	for {
		f, err := ReadFrame(rc.conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("read: %v, want the server to close the connection", err)
			}
			return
		}
		if f.Type != FramePubAck {
			t.Fatalf("unexpected %v frame", f.Type)
		}
	}
}
