//go:build !race

// The race detector's sync.Pool drops a quarter of Puts on purpose, and the
// race runtime allocates on its own; the ceilings here are measured without
// it.

package client

import (
	"net"
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// TestFanoutDispatchAllocs pins the subscriber side of a fan-out: decoding
// one MESSAGE_FANOUT frame with a 4 KiB body and handing it to R
// subscriptions costs the same for R = 2, 8 and 32, at most 2 allocations —
// the body, and one slice holding the decoded message and its R − 1 views.
func TestFanoutDispatchAllocs(t *testing.T) {
	m := jms.NewMessage("t")
	m.SetBody(make([]byte, 4<<10))
	if err := m.SetStringProperty("region", "eu"); err != nil {
		t.Fatal(err)
	}
	var first float64
	for _, r := range []int{2, 8, 32} {
		c := &Client{subs: make(map[uint64]*Subscription)}
		refs := make([]wire.DeliveryRef, r)
		for i := range refs {
			refs[i].SubID = uint64(i + 1)
			c.subs[refs[i].SubID] = &Subscription{ch: make(chan *jms.Message, 1), gone: make(chan struct{})}
		}
		f := wire.Frame{Type: wire.FrameFanout, Payload: wire.AppendFanout(nil, refs, m)}
		arena := wire.NewMessageArena()
		allocs := testing.AllocsPerRun(200, func() {
			c.dispatch(f, arena)
			for _, s := range c.subs {
				<-s.ch
			}
		})
		t.Logf("R = %d: %v allocs per fan-out", r, allocs)
		if allocs > 2 {
			t.Errorf("R = %d: %v allocs per fan-out, budget 2", r, allocs)
		}
		if r == 2 {
			first = allocs
		} else if allocs != first {
			t.Errorf("R = %d: %v allocs per fan-out, %v at R = 2: the cost depends on R", r, allocs, first)
		}
	}
}

// TestPublishBatchRoundTripAllocs pins one PublishBatch round trip over
// loopback TCP — the client's MSG_BATCH request, the server's decode and
// publish, its PUB_ACK and the client's wait for that reply — at zero
// allocations in AllocsPerRun's whole-number average, with empty and
// 128-byte bodies, which the client copies into its egress batch. The
// server's allocations left are the odd new arena slab, a fraction of a
// call's worth. The reply needs none: its channel is a finished call's and
// the PUB_ACK is built in the server's egress batch.
//
// With 4 KiB bodies, which go out by reference as 16 cuts of one frame, the
// client's side stays at zero too. The peer then only acks: the server
// gives a body over 2 KiB and its message storage of their own, two
// allocations each, which are its cost, not the client's.
func TestPublishBatchRoundTripAllocs(t *testing.T) {
	ctx := ctxT(t)
	addr, _ := startServer(t)
	c := dialT(t, addr)
	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		size int
		c    *Client
	}{{0, c}, {128, c}, {4 << 10, dialT(t, ackPeer(t))}} {
		msgs := make([]*jms.Message, 16)
		for i := range msgs {
			msgs[i] = jms.NewMessage("t")
			msgs[i].SetBody(make([]byte, tc.size))
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.c.PublishBatch(ctx, msgs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("PublishBatch(16 × %d B) round trip: %v allocs, budget 0", tc.size, allocs)
		}
	}
}

// ackPeer serves one connection on loopback that answers every request
// with a PUB_ACK of its request ID, reading nothing else of it: the peer's
// side of a round trip allocates nothing.
func ackPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := wire.NewFrameReader(conn)
		ack := []byte{0, 0, 0, 8, byte(wire.FramePubAck), 0, 0, 0, 0, 0, 0, 0, 0}
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			copy(ack[5:], f.Payload[:8])
			if _, err := conn.Write(ack); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}
