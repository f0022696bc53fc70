//go:build !race

// The race detector's sync.Pool drops a quarter of Puts on purpose, so the
// pooled encode paths allocate under -race; their ceilings are measured
// without it.

package wire

import (
	"io"
	"net"
	"testing"

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

// TestRequestBatchAllocs pins the client's publish encode and send: a
// 16-message MSG_BATCH request built in a pooled Request and written out
// allocates nothing once the pool is warm — with 128-byte bodies, copied
// into the buffer, and with 4 KiB bodies, which go by reference. The copied
// 4 KiB batch would be a ~66 KiB buffer, over what the pool keeps, so every
// call would allocate it afresh.
func TestRequestBatchAllocs(t *testing.T) {
	for _, size := range []int{128, 4 << 10} {
		msgs := make([]*jms.Message, 16)
		for i := range msgs {
			msgs[i] = encodeMessage(t)
			msgs[i].SetBody(make([]byte, size))
		}
		allocs := testing.AllocsPerRun(200, func() {
			r := NewRequest(FrameBatch, 1)
			r.AppendBatch(msgs)
			if _, err := r.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
			r.Release()
		})
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

// TestEgressBurstAllocs pins a pump burst: a copied 128-byte body, a 4 KiB
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
