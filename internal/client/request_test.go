package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// TestPublishWireBytes: a publish whose bodies go out by reference writes
// the same bytes as the copying encoders — prologue, request ID, then the
// EncodeMessage or EncodeBatch payload — for bodies on both sides of the
// by-reference threshold and one larger than the pooled buffer bound, as a
// single PUBLISH and as a 16-message MSG_BATCH.
func TestPublishWireBytes(t *testing.T) {
	ctx := ctxT(t)
	local, remote := net.Pipe()
	c := NewClient(local)
	t.Cleanup(func() { _ = c.Close() })
	frames := make(chan []byte, 1)
	go func() {
		// Read each request as the raw bytes of one frame, hand them over
		// and acknowledge the request ID they carry.
		defer close(frames)
		for {
			f, err := wire.ReadFrame(remote)
			if err != nil {
				return
			}
			raw := binary.BigEndian.AppendUint32(nil, uint32(len(f.Payload)))
			raw = append(append(raw, byte(f.Type)), f.Payload...)
			frames <- raw
			if err := wire.WriteFrame(remote, wire.Frame{Type: wire.FramePubAck, Payload: f.Payload[:8]}); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { _ = remote.Close() })

	newMsg := func(size, i int) *jms.Message {
		m := jms.NewMessage("t")
		if err := m.SetStringProperty("k", "v"); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, size)
		for j := range body {
			body[j] = byte(i + j)
		}
		m.SetBody(body)
		return m
	}
	want := func(typ wire.FrameType, reqID uint64, payload []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(8+len(payload)))
		b = binary.BigEndian.AppendUint64(append(b, byte(typ)), reqID)
		return append(b, payload...)
	}
	reqID := uint64(0)
	for _, size := range []int{0, 1023, 1024, 4096, 70000} {
		m := newMsg(size, 0)
		if err := c.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
		reqID++
		if got := <-frames; !bytes.Equal(got, want(wire.FramePublish, reqID, wire.EncodeMessage(m))) {
			t.Errorf("%d B PUBLISH: %d bytes on the wire differ from the encoding", size, len(got))
		}

		msgs := make([]*jms.Message, 16)
		for i := range msgs {
			msgs[i] = newMsg(size, i)
		}
		if err := c.PublishBatch(ctx, msgs); err != nil {
			t.Fatal(err)
		}
		reqID++
		if got := <-frames; !bytes.Equal(got, want(wire.FrameBatch, reqID, wire.EncodeBatch(msgs))) {
			t.Errorf("16 × %d B MSG_BATCH: %d bytes on the wire differ from the encoding", size, len(got))
		}
	}
}

// TestCancelledCallLateReply: a call cancelled while its reply is on the way
// drops its reply channel, so that reply, arriving late, never reaches the
// next call, which reuses a finished call's channel. The read loop's two
// steps for a reply — take the waiter out of pending, then send to it — are
// replayed by hand around the cancellation: the one order in which a
// channel reused too early would hand the next call the stale reply.
func TestCancelledCallLateReply(t *testing.T) {
	local, remote := net.Pipe()
	c := NewClient(local)
	t.Cleanup(func() { _ = c.Close() })
	t.Cleanup(func() { _ = remote.Close() })
	requests := make(chan uint64)
	go func() {
		for {
			f, err := wire.ReadFrame(remote)
			if err != nil {
				return
			}
			requests <- binary.BigEndian.Uint64(f.Payload)
		}
	}()
	reply := func(f wire.Frame) {
		if err := wire.WriteFrame(remote, f); err != nil {
			t.Error(err)
		}
	}
	errs := make(chan error, 1)

	// A finished call leaves its channel for reuse.
	go func() { errs <- c.ConfigureTopic(context.Background(), "a") }()
	id := <-requests
	reply(wire.Frame{Type: wire.FrameConfigureTopicOK, Payload: wire.EncodeU64(id)})
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { errs <- c.ConfigureTopic(ctx, "b") }()
	id = <-requests
	c.mu.Lock()
	late := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v, want context.Canceled", err)
	}

	go func() { errs <- c.ConfigureTopic(context.Background(), "c") }()
	id = <-requests
	late <- nil // a stale reply, as the read loop would send it
	reply(wire.Frame{Type: wire.FrameError, Payload: wire.EncodeError(id, "third call's reply")})
	var se *ServerError
	if err := <-errs; !errors.As(err, &se) || se.Msg != "third call's reply" {
		t.Fatalf("call after the cancelled one: %v, want its own reply, the server error", err)
	}
}
