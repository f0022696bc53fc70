package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"testing"
	"time"
	"unsafe"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/jms"
)

// These tests hold the recycled ingress storage to its one-sided rule: a
// slab is reused only after the last read of every message carved from it.
// A premature release shows as a message whose bytes changed under its
// reader; they never sleep, and each waits on a frame or a delivery.

// recycleBroker returns a broker with topic t and a reserved topic u.
func recycleBroker(t *testing.T, opts broker.Options) *broker.Broker {
	t.Helper()
	b := broker.New(opts)
	for _, name := range []string{"t", "u"} {
		if err := b.ConfigureTopic(name); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

// recycleConn is a served connection of b over conn without its read loop:
// the test calls request in its place, so it owns the connection's arena.
// Its writer drains the outbox.
func recycleConn(t *testing.T, b *broker.Broker, conn net.Conn) *serverConn {
	t.Helper()
	s := &Server{broker: b, log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	sc := s.newConn(conn)
	t.Cleanup(func() {
		sc.out.Close()
		_ = conn.Close()
		sc.w.close()
	})
	return sc
}

// request hands the connection one frame, as its read loop would.
func (sc *serverConn) request(t *testing.T, typ FrameType, reqID uint64, inner []byte) {
	t.Helper()
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(inner)), reqID)
	if err := sc.handleFrame(Frame{Type: typ, Payload: append(payload, inner...)}); err != nil {
		t.Fatal(err)
	}
}

// keptMessage is a message whose every part lives in the arena's slab: the
// correlation ID, a string property and the body.
func keptMessage(t *testing.T, topic, corrID string, body int) *jms.Message {
	t.Helper()
	m := jms.NewMessage(topic)
	if err := m.SetCorrelationID(corrID); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("region", "eu-"+corrID); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property("n", int64(body)); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, body)
	for i := range b {
		b[i] = byte(i*7 + len(corrID))
	}
	m.SetBody(b)
	m.Header.TraceID = 0x5eed
	return m
}

// TestRecycleByRefBodyHeldByWriter: a 1 500-byte body lives in the slab and
// goes out by reference. While the writer is held in the write that gathers
// it, the slab stays referenced and unchanged, though the writer encoded
// the frame before the write began, the worker is done with the publish and
// the arena has moved on; the write's completion releases it.
func TestRecycleByRefBodyHeldByWriter(t *testing.T) { byRefBodyHeldByWriter(t, 1500) }

// TestRecycleByRefLargeBodyHeldByWriter is its twin for a 4 KiB body, which
// lives in pooled body storage of its own: the carrier that references the
// slab holds the storage too, so it stays unchanged while the write that
// gathers it is held, and the write's completion releases both. The probe
// is a 4 KiB publish of other bytes, which would take the storage from its
// pool had it been released before the write.
func TestRecycleByRefLargeBodyHeldByWriter(t *testing.T) { byRefBodyHeldByWriter(t, 4<<10) }

func byRefBodyHeldByWriter(t *testing.T, size int) {
	b := recycleBroker(t, broker.Options{Engine: broker.EngineFast})
	c := newGateConn()
	sc := recycleConn(t, b, c)
	sc.request(t, FrameSubscribe, 1, EncodeSubscribe("t", FilterSpec{Mode: FilterNone}))
	<-c.writes // SUBSCRIBE_OK
	c.release <- nil
	probeFilter, err := filter.NewCorrelationID("probe")
	if err != nil {
		t.Fatal(err)
	}
	worker, err := b.SubscribeBuffered("t", probeFilter, 1)
	if err != nil {
		t.Fatal(err)
	}

	m := keptMessage(t, "t", "by-ref", size)
	large := size > byteChunk/4
	if size < bodyByRefMin || large && !sc.arena.pooledBody(size) {
		t.Fatalf("a %d-byte body is not a by-reference body carved from the slab or its body storage", size)
	}
	probe := keptMessage(t, "t", "probe", 8)
	if large {
		probe = keptMessage(t, "t", "probe", size)
	}
	sc.arena.rotate() // m is carved from s
	s := sc.arena.cur
	sc.request(t, FramePublish, 2, EncodeMessage(m))
	stored := s.msgs[0].Body // in the slab's bytes, or in body storage
	sc.arena.drop()          // only m's carrier references s from here on
	// The worker serves one publish at a time: once the probe reaches its
	// subscriber, the worker is done with m's carrier too.
	sc.request(t, FramePublish, 3, EncodeMessage(probe))
	if _, err := worker.Receive(context.Background()); err != nil {
		t.Fatal(err)
	}
	for {
		w := <-c.writes
		if len(w) != len(m.Body) {
			c.release <- nil
			continue
		}
		// The body's own iovec is being written: the writer encoded its
		// frame before it swapped the batch.
		if !bytes.Equal(w, m.Body) {
			t.Fatalf("the by-reference body went out changed: %x", w[:16])
		}
		if got := s.refs.Load(); got != 1 {
			t.Fatalf("slab references while its body is being written: %d, want 1", got)
		}
		if !bytes.Equal(stored, m.Body) {
			t.Fatal("storage rewritten while its body is being written")
		}
		c.release <- nil
		break
	}
	// The PONG goes out in a later batch, after the writer has released
	// the delivery's hold. The probe's delivery may go out before or after
	// it in that batch, its body by reference cutting the batch's buffer.
	var pong bytes.Buffer
	if err := WriteFrame(&pong, Frame{Type: FramePong, Payload: EncodeU64(4)}); err != nil {
		t.Fatal(err)
	}
	sc.request(t, FramePing, 4, nil)
	for {
		w := <-c.writes
		c.release <- nil
		if bytes.Contains(w, pong.Bytes()) {
			break
		}
	}
	if got := s.refs.Load(); got != 0 {
		t.Errorf("slab references after the write returned: %d, want 0 (recycled)", got)
	}
	if poisonSlabs && !bytes.Equal(stored, bytes.Repeat([]byte{poisonByte}, len(stored))) {
		t.Error("storage not poisoned after the write returned")
	}
}

// TestRecycleRetainedDeliveries: three messages are each delivered to one
// keeper — an in-process subscriber, a durable consumer, an acked wire
// subscription — and to a plain wire subscription, which releases it; 10 000
// other publishes on the same connection recycle slab after slab, a
// quarter of them with bodies over 2 KiB, which recycle body storage too.
// Each keeper reads its message back byte-identical, the acked one after
// its unacknowledged delivery went back to the durable backlog; two kept
// bodies are in body storage, one in the slab. Both engines: the faithful
// one's clones alias the slab's strings too.
func TestRecycleRetainedDeliveries(t *testing.T) {
	for _, engine := range []broker.Engine{broker.EngineFaithful, broker.EngineFast} {
		t.Run(engine.String(), func(t *testing.T) {
			b := recycleBroker(t, broker.Options{Engine: engine, SubscriberBuffer: 1 << 14})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := Serve(b, ln)
			t.Cleanup(func() { _ = srv.Close() })
			dial := func() *rawConn {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = conn.Close() })
				if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
					t.Fatal(err)
				}
				return &rawConn{t: t, conn: conn}
			}

			keepers := []string{"in-process", "durable", "acked"}
			keptBody := map[string]int{"in-process": 4 << 10, "durable": 300, "acked": 3000}
			want := make(map[string][]byte)
			spec := make(map[string]FilterSpec)
			flt := make(map[string]filter.Filter)
			for _, k := range keepers {
				want[k] = EncodeMessage(keptMessage(t, "t", "keep-"+k, keptBody[k]))
				spec[k] = FilterSpec{Mode: FilterCorrelationID, Expr: "keep-" + k}
				if flt[k], err = spec[k].Filter(); err != nil {
					t.Fatal(err)
				}
			}
			inproc, err := b.SubscribeBuffered("t", flt["in-process"], 4)
			if err != nil {
				t.Fatal(err)
			}
			durable, err := b.SubscribeDurable("t", "kept", flt["durable"], broker.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			acker := dial()
			ackedSpec := spec["acked"]
			ackedSpec.DurableName, ackedSpec.Acked = "acked", true
			ackedID := acker.subscribe(ackedSpec)

			// The publisher's own connection drains every message, so each
			// one's carrier is released there.
			pub := dial()
			pub.subscribe(FilterSpec{Mode: FilterNone})
			const further, batch = 10_000, 16
			frames := len(keepers) + further/batch
			deliveries := len(keepers) + further
			read := make(chan error, 1)
			go func() {
				acks, got := 0, 0
				for acks < frames || got < deliveries {
					f, err := ReadFrame(pub.conn)
					if err != nil {
						read <- err
						return
					}
					switch f.Type {
					case FramePubAck:
						acks++
					case FrameMessage:
						got++
					default:
						read <- fmt.Errorf("unexpected %v frame", f.Type)
						return
					}
				}
				read <- nil
			}()
			// The kept messages lie thousands of messages apart, so each has a
			// slab of its own, which only its keeper's escape keeps from
			// reuse.
			msgs := make([]*jms.Message, batch)
			for i := 0; i < further; i += batch {
				if k := i / 3200; i%3200 == 0 && k < len(keepers) {
					pub.request(FramePublish, want[keepers[k]])
				}
				for j := range msgs {
					size := 100 + (i+j)%200
					if (i+j)%4 == 0 {
						size += 3000 + (i+j)%1000
					}
					msgs[j] = keptMessage(t, "t", fmt.Sprintf("other-%d", i+j), size)
				}
				pub.request(FrameBatch, EncodeBatch(msgs))
			}
			if err := <-read; err != nil {
				t.Fatal(err)
			}

			check := func(k string, m *jms.Message) {
				t.Helper()
				if got := EncodeMessage(m); !bytes.Equal(got, want[k]) {
					t.Errorf("%s: the kept message changed after %d further publishes:\n got %x\nwant %x", k, further, got, want[k])
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for k, sub := range map[string]*broker.Subscriber{"in-process": inproc, "durable": durable} {
				m, err := sub.Receive(ctx)
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				check(k, m)
			}
			// The acked subscription was sent its message and never acked
			// it; unsubscribing hands it back to the durable backlog.
			if f := acker.read(); f.Type != FrameMessage {
				t.Fatalf("acked subscription: frame %v, want MESSAGE", f.Type)
			}
			acker.request(FrameUnsubscribe, EncodeU64(ackedID))
			if f := acker.read(); f.Type != FrameUnsubscribeOK {
				t.Fatalf("frame = %v, want UNSUBSCRIBE_OK", f.Type)
			}
			again, err := b.SubscribeDurable("t", "acked", flt["acked"], broker.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := again.Receive(ctx)
			if err != nil {
				t.Fatal(err)
			}
			check("acked", m)
		})
	}
}

// TestRecycleMultiTopicRefusedRun: a wire batch spanning topics t and u is
// split into runs that borrow its messages; when u's run is refused after
// t's was accepted, the server releases the batch's carrier while t's run
// is in flight. The carrier escapes instead of dropping its slab
// reference, so the message t's subscriber reads stays intact however many
// slabs are recycled after.
func TestRecycleMultiTopicRefusedRun(t *testing.T) {
	b := recycleBroker(t, broker.Options{Engine: broker.EngineFast, InFlight: 1})
	// Fill u's worker: one delivery fills its subscriber, the worker parks
	// on the next and a third fills its intake queue.
	blocker, err := b.SubscribeBuffered("u", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Publish(ctx, jms.NewMessage("u")); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := 0; i < 3; i++ {
			_, _ = blocker.Receive(ctx)
		}
	})
	o := b.NewOutbox()
	if _, err := o.Subscribe("t", nil, nil); err != nil {
		t.Fatal(err)
	}

	mt, mu := keptMessage(t, "t", "first-run", 200), keptMessage(t, "u", "second-run", 200)
	want := EncodeMessage(mt)
	arena := newSlabArena()
	arena.rotate() // the batch is carved from s
	s := arena.cur
	c := broker.GetBatchCarrier()
	if c.Msgs, err = arena.AppendBatchMessages(c.Msgs, EncodeBatch([]*jms.Message{mt, mu})); err != nil {
		t.Fatal(err)
	}
	arena.claimSlabs(c)
	refused, cancel := context.WithCancel(ctx)
	cancel()
	if err := b.Publisher(0).PublishBatchCarrier(refused, c); err == nil {
		t.Fatal("u's run was accepted behind a full intake queue")
	}
	c.Release() // as the server does after a refused publish
	arena.drop()
	if got := s.refs.Load(); got != 1 {
		t.Fatalf("slab references after the refused batch's release: %d, want 1 (escaped)", got)
	}

	var got []broker.Delivery
	for len(got) == 0 {
		if got = o.Take(got, 1); len(got) == 0 {
			<-o.Ready()
		}
	}
	got[0].Hold().Release()
	// Recycle slabs through the pool: s, had it been released, would be
	// among them.
	churn, payload := newSlabArena(), EncodeMessage(keptMessage(t, "t", "churn", 200))
	for i := 0; i < 8*len(s.msgs); i++ {
		cc := broker.GetBatchCarrier()
		if _, err := churn.DecodeMessageArena(payload); err != nil {
			t.Fatal(err)
		}
		churn.claimSlabs(cc)
		cc.Release()
	}
	if m := EncodeMessage(got[0].Msg); !bytes.Equal(m, want) {
		t.Errorf("t's run read a message whose storage was recycled:\n got %x\nwant %x", m, want)
	}
}

// TestRecycleBodyStorage: the server's arena gives a body over a quarter
// chunk, up to 64 KiB, pooled storage of the smallest power-of-two class
// from 4 KiB that holds it, claimed for the publish's carrier beside the
// slab its struct is carved from, and the carrier's release drops both. A
// body of a quarter chunk or less takes none — a connection carrying only
// small publishes allocates no body storage, not even its claim list, and
// the arena stays in its 128-byte size class — nor does a body over
// 64 KiB, which is GC-owned with a struct of its own.
func TestRecycleBodyStorage(t *testing.T) {
	if size := unsafe.Sizeof(MessageArena{}); size > 128 {
		t.Errorf("MessageArena is %d bytes, over its 128-byte size class", size)
	}
	a := newSlabArena()
	defer a.drop()
	for _, tc := range []struct{ body, class int }{
		{16, 0}, {1500, 0}, {byteChunk/4 + 1, 4 << 10}, {4 << 10, 4 << 10},
		{4<<10 + 1, 8 << 10}, {16<<10 + 1, 32 << 10}, {64 << 10, 64 << 10}, {64<<10 + 1, 0},
	} {
		m := keptMessage(t, "t", "c", tc.body)
		got, err := a.DecodeMessageArena(EncodeMessage(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeMessage(got), EncodeMessage(m)) {
			t.Fatalf("%d-byte body: message diverges", tc.body)
		}
		if cap(got.Body) != tc.body && tc.body <= maxPooledBody {
			t.Errorf("%d-byte body: capacity %d, want it capacity-limited", tc.body, cap(got.Body))
		}
		slabbed := false
		for _, s := range a.claims {
			for i := range s.msgs {
				slabbed = slabbed || &s.msgs[i] == got
			}
		}
		if want := tc.body <= maxPooledBody; slabbed != want {
			t.Errorf("%d-byte body: struct carved from the claimed slab: %v, want %v", tc.body, slabbed, want)
		}
		if tc.body <= byteChunk/4 && a.bodies != nil {
			t.Errorf("%d-byte body: the arena allocated body claims after small publishes only", tc.body)
		}
		var stores []int
		if a.bodies != nil {
			for _, s := range *a.bodies {
				stores = append(stores, len(s.(interface{ bytes() []byte }).bytes()))
			}
		}
		switch {
		case tc.class == 0 && len(stores) != 0:
			t.Errorf("%d-byte body: claims body storage of %v bytes, want none", tc.body, stores)
		case tc.class != 0 && (len(stores) != 1 || stores[0] != tc.class):
			t.Errorf("%d-byte body: claims body storage of %v bytes, want one of %d", tc.body, stores, tc.class)
		}
		c := broker.GetBatchCarrier()
		c.Msgs = append(c.Msgs, got)
		a.claimSlabs(c)
		if len(a.claims) != 0 || a.bodies != nil && len(*a.bodies) != 0 {
			t.Fatalf("%d-byte body: claims left after claimSlabs", tc.body)
		}
		c.Release()
	}
}
