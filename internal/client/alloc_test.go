//go:build !race

// The race detector's sync.Pool drops a quarter of Puts on purpose, and the
// race runtime allocates on its own; the ceilings here are measured without
// it.

package client

import (
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
// allocations in AllocsPerRun's whole-number average, on both ends, with
// empty, 128-byte and 4 KiB bodies. The client copies the smaller bodies
// into its egress batch and writes a 4 KiB one by reference, as 16 cuts of
// one frame. The server's allocations left are the odd new arena slab, a
// fraction of a call's worth: a 4 KiB body takes pooled body storage of
// its own. The reply needs none: its channel is a finished call's and the
// PUB_ACK is built in the server's egress batch.
func TestPublishBatchRoundTripAllocs(t *testing.T) {
	ctx := ctxT(t)
	addr, _ := startServer(t)
	c := dialT(t, addr)
	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 128, 4 << 10} {
		msgs := make([]*jms.Message, 16)
		for i := range msgs {
			msgs[i] = jms.NewMessage("t")
			msgs[i].SetBody(make([]byte, size))
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.PublishBatch(ctx, msgs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("PublishBatch(16 × %d B) round trip: %v allocs, budget 0", size, allocs)
		}
	}
}
