package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// These tests drive a coalescing client (Options.BatchMax) over gateConn, as
// the egress tests do: the test holds every write, and a goroutine's wait
// is read from the goroutine dump.

// awaiting counts the goroutines in fn that wait for a reply: their frames
// are in the fill batch.
func awaiting(fn string) (n int) {
	for _, g := range stacks() {
		if strings.Contains(g, fn) && strings.Contains(g, "(*Client).await") {
			n++
		}
	}
	return n
}

// readFrames parses the frames written until want of them are complete,
// releasing each write.
func readFrames(t *testing.T, gc *gateConn, want int) []wire.Frame {
	t.Helper()
	var sent []byte
	var frames []wire.Frame
	for len(frames) < want {
		sent = append(sent, <-gc.writes...)
		gc.release <- nil
		r := bytes.NewReader(sent)
		frames = frames[:0]
		for r.Len() > 0 {
			f, err := wire.ReadFrame(r)
			if errors.Is(err, io.ErrUnexpectedEOF) {
				break // the rest of the batch is in the next write
			}
			if err != nil {
				t.Fatalf("after %d frames: %v", len(frames), err)
			}
			frames = append(frames, f)
		}
	}
	if len(frames) != want {
		t.Fatalf("%d frames written, want %d", len(frames), want)
	}
	return frames
}

// pubAck answers the MSG_BATCH or PUBLISH frame f from the peer's end.
func pubAck(t *testing.T, remote io.Writer, f wire.Frame) {
	t.Helper()
	if err := wire.WriteFrame(remote, wire.Frame{Type: wire.FramePubAck, Payload: f.Payload[:8]}); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceHeldWriter: with the writer held in a write, k concurrent
// publishes on a BatchMax 8 client join MSG_BATCH frames of 8, 8 and k − 16
// messages, each byte for byte wire.AppendBatch of its messages (a third of
// the bodies go by reference), and every publish returns on its frame's one
// reply.
func TestCoalesceHeldWriter(t *testing.T) {
	const k, max = 19, 8
	gc, remote := newGateConn(t)
	c := NewClientWith(gc, Options{BatchMax: max})
	t.Cleanup(func() { _ = c.Close() })
	go func() { _ = c.Ping(context.Background()) }()
	<-gc.writes // the writer is held in the PING's write

	byBody := make(map[string]*jms.Message, k)
	done := make(chan error, k)
	for i := 0; i < k; i++ {
		m := jms.NewMessage("t")
		body := []byte(fmt.Sprintf("m%d", i))
		if i%3 == 0 { // a body the frame carries by reference
			body = append(body, bytes.Repeat([]byte{'.'}, 2<<10)...)
		}
		m.SetBody(body)
		byBody[string(m.Body)] = m
		go func() { done <- c.Publish(context.Background(), m) }()
	}
	for awaiting("(*Client).publishJoin") < k {
		runtime.Gosched()
	}
	gc.release <- nil // the PING

	frames := readFrames(t, gc, (k+max-1)/max)
	for i, f := range frames {
		if f.Type != wire.FrameBatch {
			t.Fatalf("frame %d is %v, want MSG_BATCH", i, f.Type)
		}
		got, err := wire.DecodeBatch(f.Payload[8:])
		if err != nil {
			t.Fatal(err)
		}
		if want := min(k-i*max, max); len(got) != want {
			t.Fatalf("frame %d carries %d messages, want %d", i, len(got), want)
		}
		msgs := make([]*jms.Message, len(got))
		for j, m := range got {
			msgs[j] = byBody[string(m.Body)]
		}
		if !bytes.Equal(f.Payload[8:], wire.AppendBatch(nil, msgs)) {
			t.Fatalf("frame %d is not wire.AppendBatch of its messages", i)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("a publish returned before its frame's reply: %v", err)
	default:
	}
	for _, f := range frames {
		pubAck(t, remote, f)
	}
	for i := 0; i < k; i++ {
		if err := <-done; err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
}

// TestCoalesceIdleWriter: with the writer idle, a lone publish is written
// at once as a MSG_BATCH frame of one message, and so is the next one, in a
// frame of its own.
func TestCoalesceIdleWriter(t *testing.T) {
	gc, remote := newGateConn(t)
	c := NewClientWith(gc, Options{BatchMax: 8})
	t.Cleanup(func() { _ = c.Close() })
	var reqIDs []uint64
	for i := 0; i < 2; i++ {
		m := jms.NewMessage("t")
		done := make(chan error, 1)
		go func() { done <- c.Publish(context.Background(), m) }()
		f := readFrames(t, gc, 1)[0]
		if f.Type != wire.FrameBatch || binary.BigEndian.Uint32(f.Payload[8:]) != 1 {
			t.Fatalf("publish %d went out as a %v frame, want a MSG_BATCH of one message", i, f.Type)
		}
		reqIDs = append(reqIDs, binary.BigEndian.Uint64(f.Payload))
		pubAck(t, remote, f)
		if err := <-done; err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if reqIDs[0] == reqIDs[1] {
		t.Fatalf("both publishes went out under request %d", reqIDs[0])
	}
}

// TestCoalesceOtherFramesClose: a frame sealed after a coalesced publish's
// MSG_BATCH frame closes it, and so does the writer's swap. With the
// writer held, a PING, a publish, a PING and a publish go out as four
// frames; the fill batch they share carried a frame opened before a swap.
func TestCoalesceOtherFramesClose(t *testing.T) {
	gc, remote := newGateConn(t)
	c := NewClientWith(gc, Options{BatchMax: 8})
	t.Cleanup(func() { _ = c.Close() })
	publish := func() chan error {
		done := make(chan error, 1)
		go func() { done <- c.Publish(context.Background(), jms.NewMessage("t")) }()
		return done
	}
	// Two lone publishes, one per fill batch of the double buffer; the
	// second one's write is held.
	done := publish()
	f := readFrames(t, gc, 1)[0]
	pubAck(t, remote, f)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	held := publish()
	first := <-gc.writes

	var dones []chan error
	for i := 0; i < 2; i++ {
		go func() { _ = c.Ping(context.Background()) }()
		for awaiting("(*Client).Ping") < i+1 {
			runtime.Gosched()
		}
		dones = append(dones, publish())
		for awaiting("(*Client).publishJoin") < i+2 {
			runtime.Gosched()
		}
	}
	gc.release <- nil
	f, err := wire.ReadFrame(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	pubAck(t, remote, f)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	frames := readFrames(t, gc, 4)
	for i, f := range frames {
		want := []wire.FrameType{wire.FramePing, wire.FrameBatch}[i%2]
		if f.Type != want {
			t.Fatalf("frame %d is %v, want %v", i, f.Type, want)
		}
		if want == wire.FrameBatch {
			if n := binary.BigEndian.Uint32(f.Payload[8:]); n != 1 {
				t.Fatalf("frame %d carries %d messages, want 1", i, n)
			}
			pubAck(t, remote, f)
		}
	}
	for _, done := range dones {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalesceCancelledPublishWaitsForWrite: a coalesced Publish whose
// context is done returns only once its frame, which carries the 4 KiB body
// by reference, has been written, so overwriting the body after the call
// leaves the original bytes on the wire.
func TestCoalesceCancelledPublishWaitsForWrite(t *testing.T) {
	sent, m := cancelledPublishOnWire(t, Options{BatchMax: 8})
	payload := wire.AppendBatch(nil, []*jms.Message{m})
	if len(sent) != 13+len(payload) || binary.BigEndian.Uint32(sent) != uint32(8+len(payload)) ||
		wire.FrameType(sent[4]) != wire.FrameBatch || !bytes.Equal(sent[13:], payload) {
		t.Fatalf("the MSG_BATCH frame on the wire (%d bytes) is not the message with its original body", len(sent))
	}
}
