package client

import (
	"bytes"
	"encoding/binary"
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
