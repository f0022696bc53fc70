//go:build !race

// The race detector's sync.Pool drops a quarter of Puts on purpose, so the
// pooled encode paths allocate under -race; their ceilings are measured
// without it.

package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/broker"
	"repro/internal/jms"
)

// encodeMessage is BenchmarkRegressionBatchEncode's and
// BenchmarkRegressionDeliver's message: a 128-byte body and one string
// property.
func encodeMessage(t *testing.T) *jms.Message {
	m := jms.NewMessage("t")
	m.SetBody(make([]byte, 128))
	if err := m.SetStringProperty("region", "eu"); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAppendBatchAllocs pins the client's PublishBatch encode: a 16-message
// batch appended into a pooled buffer costs at most 2 allocations (none
// measured once the buffer has grown).
func TestAppendBatchAllocs(t *testing.T) {
	msgs := make([]*jms.Message, 16)
	for i := range msgs {
		msgs[i] = encodeMessage(t)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf := GetBuffer()
		*buf = AppendBatch((*buf)[:0], msgs)
		PutBuffer(buf)
	})
	t.Logf("16-message batch encode: %v allocs", allocs)
	if allocs > 2 {
		t.Errorf("16-message batch encode: %v allocs, budget 2", allocs)
	}
}

// TestAppendDeliveryAllocs pins what the server's delivery path builds per
// frame — a MESSAGE or MESSAGE_FANOUT frame's prologue, delivery header and
// message in a pooled buffer — at zero allocations.
func TestAppendDeliveryAllocs(t *testing.T) {
	m := encodeMessage(t)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		bp := GetBuffer()
		buf := append((*bp)[:0], 0, 0, 0, 0, byte(FrameMessage))
		seq++
		*bp = AppendDelivery(buf, 7, seq, m)
		PutBuffer(bp)
	})
	if allocs != 0 {
		t.Errorf("delivery frame encode: %v allocs, budget 0", allocs)
	}
	refs := []DeliveryRef{{SubID: 7}, {SubID: 8, Seq: 1}, {SubID: 9}}
	allocs = testing.AllocsPerRun(200, func() {
		bp := GetBuffer()
		*bp = AppendFanout(append((*bp)[:0], 0, 0, 0, 0, byte(FrameFanout)), refs, m)
		PutBuffer(bp)
	})
	if allocs != 0 {
		t.Errorf("fanout frame encode: %v allocs, budget 0", allocs)
	}
}

// TestRequestBatchAllocs pins the client's send of a 16-message MSG_BATCH
// request: appended to a client Egress's fill batch and written out, it
// allocates nothing once the connection's two batches have grown — with
// 128-byte bodies, copied into the batch, and with 4 KiB bodies, which go
// as 16 by-reference cuts of the one frame.
func TestRequestBatchAllocs(t *testing.T) {
	for _, size := range []int{128, 4 << 10} {
		msgs := make([]*jms.Message, 16)
		for i := range msgs {
			msgs[i] = encodeMessage(t)
			msgs[i].SetBody(make([]byte, size))
		}
		frame := prologueSize + 8 + len(AppendBatch(nil, msgs))
		conn := &discardConn{want: frame, done: make(chan struct{}, 1)}
		e := NewEgress(conn)
		allocs := testing.AllocsPerRun(200, func() {
			s, err := e.Batch(1, msgs)
			if err != nil {
				t.Fatal(err)
			}
			<-conn.done
			e.Wait(s)
		})
		e.Close()
		if allocs != 0 {
			t.Errorf("16 × %d B batch request: %v allocs, budget 0", size, allocs)
		}
	}
}

// TestAppendBatchMessagesAllocs: a 16-message batch decoded into an empty
// carrier costs one slice allocation more than into one with room, not a
// regrowth per doubling (1, 2, 4, 8, 16). Each run decodes through a fresh
// arena, so both sides pay the same chunks and interned names. Under -race
// the grow itself costs two allocations, hence this file's build tag.
func TestAppendBatchMessagesAllocs(t *testing.T) {
	batch := make([]*jms.Message, 16)
	for i := range batch {
		batch[i] = anatomyMessage(t, i)
	}
	payload := EncodeBatch(batch)
	decode := func(dst []*jms.Message) func() {
		return func() {
			if _, err := NewMessageArena().AppendBatchMessages(dst, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	withRoom := testing.AllocsPerRun(20, decode(make([]*jms.Message, 0, len(batch))))
	empty := testing.AllocsPerRun(20, decode(nil))
	if empty-withRoom != 1 {
		t.Errorf("16-message batch into an empty carrier: %v allocs beyond one with room, want 1", empty-withRoom)
	}
}

// discardConn is a net.Conn that drops what is written to it and signals on
// done each time another want bytes have gone through. It has no writev, so
// a gathered write reaches it as one Write per buffer.
type discardConn struct {
	net.Conn
	n, want int
	done    chan struct{}
}

func (c *discardConn) Write(b []byte) (int, error) {
	if c.n += len(b); c.n >= c.want {
		c.n -= c.want
		c.done <- struct{}{}
	}
	return len(b), nil
}

// TestEgressWriteAllocs pins the connection writer's vectored write: two
// deliveries of a 4 KiB body, each a head and a by-reference tail, so every
// write the writer makes gathers several buffers, cost nothing to encode,
// queue and write once the connection's two batches have grown.
func TestEgressWriteAllocs(t *testing.T) {
	m := encodeMessage(t)
	m.SetBody(make([]byte, 4<<10))
	frame := prologueSize + len(EncodeDelivery(7, 0, m))
	conn := &discardConn{want: 2 * frame, done: make(chan struct{}, 1)}
	sc := &serverConn{server: &Server{}, conn: conn, w: newConnWriter(conn, &wireCounters{}, nil)}
	defer sc.w.close()
	refs := []DeliveryRef{{SubID: 7}}
	allocs := testing.AllocsPerRun(200, func() {
		for range 2 {
			if err := deliver(sc, refs, m); err != nil {
				t.Fatal(err)
			}
		}
		<-conn.done
	})
	if allocs != 0 {
		t.Errorf("two gathered delivery writes: %v allocs, budget 0", allocs)
	}
}

// TestEgressBurstAllocs pins a delivery burst: a copied 128-byte body, a 4 KiB
// body by reference and a MESSAGE_FANOUT of it to three subscriptions,
// appended in one hold of the writer and written in one gathered write,
// cost nothing once the connection's two batches have grown.
func TestEgressBurstAllocs(t *testing.T) {
	small, large := encodeMessage(t), encodeMessage(t)
	large.SetBody(make([]byte, 4<<10))
	refs := []DeliveryRef{{SubID: 1}, {SubID: 2}, {SubID: 3, Seq: 9}, {SubID: 4}}
	sends := []pumpSend{{m: small, lo: 0, hi: 1}, {m: large, lo: 0, hi: 1}, {m: large, lo: 1, hi: 4}}
	burst := prologueSize*3 + len(EncodeDelivery(1, 0, small)) + len(EncodeDelivery(1, 0, large)) + len(AppendFanout(nil, refs[1:], large))
	conn := &discardConn{want: burst, done: make(chan struct{}, 1)}
	sc := &serverConn{server: &Server{}, conn: conn, w: newConnWriter(conn, &wireCounters{}, nil)}
	defer sc.w.close()
	allocs := testing.AllocsPerRun(200, func() {
		if err := sc.sendBurst(sends, refs); err != nil {
			t.Fatal(err)
		}
		<-conn.done
	})
	if allocs != 0 {
		t.Errorf("one pump burst: %v allocs, budget 0", allocs)
	}
}

// tallyConn is a net.Conn that drops what is written to it and counts the
// bytes; waitFor blocks until the count reaches a total.
type tallyConn struct {
	net.Conn
	mu   sync.Mutex
	more sync.Cond
	n    int
}

func newTallyConn() *tallyConn {
	c := &tallyConn{}
	c.more.L = &c.mu
	return c
}

func (c *tallyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.n += len(b)
	c.more.Broadcast()
	c.mu.Unlock()
	return len(b), nil
}

func (c *tallyConn) Close() error { return nil }

func (c *tallyConn) waitFor(total int) {
	c.mu.Lock()
	for c.n < total {
		c.more.Wait()
	}
	c.mu.Unlock()
}

// TestRecycleSteadyStateAllocs pins the server's side of a wire publish —
// decode into the connection's arena, admit, match, the writer's encode
// and write to a discarding conn — at zero allocations per 64
// messages once slabs and body storage recycle, as 64 PUBLISH frames and as
// 4 BATCH(16) frames, with a 16-byte body and with a 4 KiB one (pooled body
// storage, written by reference). A GC-owned arena, the storage every wire
// publish had before slabs recycled, needs a struct chunk per 31 small
// messages here, and a struct and a body per large one.
//
// A publish some keeper retains — an in-process subscriber, a durable
// consumer, an acked wire subscription — escapes, and its slab and body
// storage are left to the GC; that must allocate no more per message than
// the GC-owned arena does on the same path.
func TestRecycleSteadyStateAllocs(t *testing.T) {
	if poisonSlabs {
		t.Skip("under jmsdebug every publish takes slabs of its own")
	}
	const perRun, batch = 64, 16
	shapes := []struct {
		name   string
		typ    FrameType
		frames int
	}{
		{"PUBLISH", FramePublish, perRun},
		{"BATCH(16)", FrameBatch, perRun / batch},
	}
	const pubAck, subOK = prologueSize + 8, prologueSize + 16

	// measure returns the allocations per run of perRun messages m, sent as
	// frames of type typ, published through a served connection to the
	// given keeper, on a GC-owned arena in place of the connection's own if
	// gcOwned.
	measure := func(t *testing.T, gcOwned bool, keeper string, typ FrameType, frames int, m *jms.Message) float64 {
		body := EncodeMessage(m)
		if typ == FrameBatch {
			msgs := make([]*jms.Message, batch)
			for i := range msgs {
				msgs[i] = m
			}
			body = EncodeBatch(msgs)
		}
		delivery := prologueSize + len(EncodeDelivery(1, 1, m))
		b := recycleBroker(t, broker.Options{Engine: broker.EngineFast, SubscriberBuffer: 1 << 12})
		conn := newTallyConn()
		sc := recycleConn(t, b, conn)
		if gcOwned {
			sc.arena = NewMessageArena()
		}
		total := 0
		var sub *broker.Subscriber
		var err error
		switch keeper {
		case "in-process":
			sub, err = b.SubscribeBuffered("t", nil, 1<<12)
		case "durable":
			sub, err = b.SubscribeDurable("t", "kept", nil, broker.DurableOptions{})
		default:
			spec := FilterSpec{Mode: FilterNone}
			if keeper == "acked" {
				spec.DurableName, spec.Acked = "acked", true
			}
			sc.request(t, FrameSubscribe, 1, EncodeSubscribe("t", spec))
			total += subOK
		}
		if err != nil {
			t.Fatal(err)
		}
		payload := binary.BigEndian.AppendUint64(nil, 2)
		payload = append(payload, body...)
		ack := EncodeAck(1, 0)
		seq := uint64(0)
		ctx := context.Background()
		run := func() {
			for range frames {
				if err := sc.handleFrame(Frame{Type: typ, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
			total += frames * pubAck
			if sub != nil {
				for range perRun {
					if _, err := sub.Receive(ctx); err != nil {
						t.Fatal(err)
					}
				}
				conn.waitFor(total)
				return
			}
			total += perRun * delivery
			conn.waitFor(total)
			if keeper == "acked" {
				for range perRun {
					seq++
					binary.BigEndian.PutUint64(ack[8:], seq)
					if err := sc.handleFrame(Frame{Type: FrameMsgAck, Payload: ack}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Grow every buffer and warm the pools first.
		for range 40 {
			run()
		}
		return testing.AllocsPerRun(100, run)
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, size := range []int{16, 4 << 10} {
				t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
					m := jms.NewMessage("t")
					if err := m.SetCorrelationID("dev-5123456"); err != nil {
						t.Fatal(err)
					}
					m.SetBody(make([]byte, size))
					m.Header.TraceID = 1
					for _, keeper := range []string{"wire", "in-process", "durable", "acked"} {
						slabs := measure(t, false, keeper, shape.typ, shape.frames, m)
						gcOwned := measure(t, true, keeper, shape.typ, shape.frames, m)
						t.Logf("%s: %v allocs per %d messages (GC-owned arena: %v)", keeper, slabs, perRun, gcOwned)
						if keeper == "wire" && slabs != 0 {
							t.Errorf("%s: %v allocs per %d messages, want 0", keeper, slabs, perRun)
						}
						if slabs > gcOwned {
							t.Errorf("%s: %v allocs per %d messages, more than the GC-owned arena's %v", keeper, slabs, perRun, gcOwned)
						}
					}
				})
			}
		})
	}
}
