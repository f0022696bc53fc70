package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/jms"
	"repro/internal/trace"
)

// deliveryHarness is a serverConn reduced to its egress half: the writer's
// append path feeding a connWriter over one end of a net.Pipe, a FrameReader
// on the other.
// net.Pipe has no writev, so a two-buffer frame reaches the reader as two
// Writes — the gather order is what is under test, not the syscall.
type deliveryHarness struct {
	sc       *serverConn
	counters *wireCounters
	peer     net.Conn
	fr       *FrameReader
	stop     sync.Once
}

// close shuts both ends and waits for the writer goroutine, after which the
// counters and spans of every write it made are visible.
func (h *deliveryHarness) close() {
	h.stop.Do(func() {
		_ = h.peer.Close()
		_ = h.sc.conn.Close()
		h.sc.w.close()
	})
}

func newDeliveryHarness(t *testing.T, tracer *trace.Recorder) *deliveryHarness {
	t.Helper()
	local, peer := net.Pipe()
	h := &deliveryHarness{counters: &wireCounters{}, peer: peer, fr: NewFrameReader(peer)}
	h.sc = &serverConn{
		server: &Server{tracer: tracer},
		conn:   local,
		w:      newConnWriter(local, h.counters, tracer),
	}
	t.Cleanup(h.close)
	return h
}

// sendBurst appends a staged burst to the fill batch in one hold of the
// writer, as the writer's own take does, from outside the writer.
func (sc *serverConn) sendBurst(sends []pumpSend, refs []DeliveryRef) error {
	b, err := sc.w.begin()
	if err != nil {
		return err
	}
	defer sc.w.end()
	return sc.appendBurst(b, sends, refs)
}

// deliver queues one delivery of m to refs as a burst of its own.
func deliver(sc *serverConn, refs []DeliveryRef, m *jms.Message) error {
	return sc.sendBurst([]pumpSend{{m: m, hi: len(refs)}}, refs)
}

func deliveryMessage(rng *rand.Rand, bodyLen int, traceID uint64) *jms.Message {
	m := jms.NewMessage("orders")
	m.Header.MessageID = rng.Uint64()
	m.Header.TraceID = traceID
	_ = m.SetCorrelationID(fmt.Sprintf("#%d", rng.Intn(1000)))
	_ = m.SetStringProperty("region", "emea")
	_ = m.SetInt64Property("ts", rng.Int63())
	if bodyLen > 0 {
		body := make([]byte, bodyLen)
		rng.Read(body)
		m.SetBody(body)
	}
	return m
}

// TestDeliveryByReferenceByteIdentical is the byte-identity wall for
// by-reference bodies: whatever appendDelivery and the connection writer put
// on the wire — one buffer below the cut-over, head and body gathered from
// it on — is the frame EncodeDelivery describes, and it decodes back to the
// message. Frames, not buffers, are what the counters count.
func TestDeliveryByReferenceByteIdentical(t *testing.T) {
	sizes := []int{0, bodyByRefMin - 1, bodyByRefMin, 4 << 10, 64 << 10}
	for _, traced := range []bool{false, true} {
		var tracer *trace.Recorder
		if traced {
			tracer = trace.New(trace.Config{SampleEvery: 1})
			defer tracer.Close()
		}
		for _, acked := range []bool{false, true} {
			t.Run(fmt.Sprintf("traced=%v/acked=%v", traced, acked), func(t *testing.T) {
				h := newDeliveryHarness(t, tracer)
				rng := rand.New(rand.NewSource(16))
				var msgs []*jms.Message
				var wireBytes uint64
				for i, n := range sizes {
					msgs = append(msgs, deliveryMessage(rng, n, uint64(i+1)))
				}
				seqOf := func(i int) uint64 {
					if acked {
						return uint64(i + 1)
					}
					return 0
				}
				// All five frames are queued before the peer reads any (the
				// fill batch holds more than that), so the writer gathers
				// single- and two-buffer frames together.
				for i, m := range msgs {
					if err := deliver(h.sc, []DeliveryRef{{SubID: 7, Seq: seqOf(i)}}, m); err != nil {
						t.Fatal(err)
					}
				}
				arena := NewMessageArena()
				for i, m := range msgs {
					f, err := h.fr.Next()
					if err != nil {
						t.Fatalf("body %d: %v", len(m.Body), err)
					}
					want := EncodeDelivery(7, seqOf(i), m)
					if f.Type != FrameMessage || !bytes.Equal(f.Payload, want) {
						t.Fatalf("body %d: frame on the wire differs from EncodeDelivery", len(m.Body))
					}
					wireBytes += uint64(prologueSize + len(want))
					subID, seq, back, err := arena.DecodeDeliveryArena(f.Payload)
					if err != nil {
						t.Fatalf("body %d: decode: %v", len(m.Body), err)
					}
					if subID != 7 || seq != seqOf(i) || !bytes.Equal(EncodeMessage(back), EncodeMessage(m)) {
						t.Fatalf("body %d: delivery did not round-trip", len(m.Body))
					}
				}
				h.close()
				if got := h.counters.framesOut.Load(); got != uint64(len(msgs)) {
					t.Errorf("framesOut = %d, want %d: frames are counted, not buffers", got, len(msgs))
				}
				if got := h.counters.bytesOut.Load(); got != wireBytes {
					t.Errorf("bytesOut = %d, want %d", got, wireBytes)
				}
				if traced {
					tracer.Flush()
					for _, m := range msgs {
						tr, ok := tracer.Get(m.Header.TraceID)
						if !ok || tr.StageNs(trace.StageEncode) <= 0 || tr.StageNs(trace.StageEgressWrite) <= 0 {
							t.Errorf("body %d: encode/egress_write spans missing from the trace", len(m.Body))
						}
					}
				}
			})
		}
	}
}

// TestDeliveryTooLargeCountsTheTail: the frame-size check covers the head
// and the by-reference body together.
func TestDeliveryTooLargeCountsTheTail(t *testing.T) {
	h := newDeliveryHarness(t, nil)
	m := jms.NewMessage("t")
	m.SetBody(make([]byte, MaxFrameSize))
	if err := deliver(h.sc, []DeliveryRef{{SubID: 1}}, m); err == nil {
		t.Fatal("a delivery over MaxFrameSize was queued")
	}
}

// TestDeliveryBodyOwnership: the body goes out by reference, so the bytes a
// sibling subscription's frame still has queued must not depend on what a
// subscriber does to its own replica in the meantime. SetBody replaces the
// slice; the queued frame keeps the bytes it was built from.
func TestDeliveryBodyOwnership(t *testing.T) {
	h := newDeliveryHarness(t, nil)
	m := deliveryMessage(rand.New(rand.NewSource(1)), 4<<10, 0)
	want := EncodeDelivery(2, 0, m)
	first, sibling := m.Shared(), m.Shared()

	// Nothing reads the pipe yet: the writer blocks in its first Write with
	// the sibling's frame still in the fill batch, or in the batch it writes.
	if err := deliver(h.sc, []DeliveryRef{{SubID: 1}}, first); err != nil {
		t.Fatal(err)
	}
	if err := deliver(h.sc, []DeliveryRef{{SubID: 2}}, sibling); err != nil {
		t.Fatal(err)
	}
	first.SetBody(bytes.Repeat([]byte{0xee}, 4<<10))
	sibling.SetBody(nil)

	if _, err := h.fr.Next(); err != nil {
		t.Fatal(err)
	}
	f, err := h.fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, want) {
		t.Error("a replica's SetBody changed the bytes of a queued delivery")
	}
}
