//go:build !race

// The race detector's sync.Pool drops a quarter of Puts on purpose, so the
// carrier pool allocates under it; the ceiling here is measured without it.

package broker

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/jms"
)

// TestCarrierFanoutOwnership pins a wire publish's fan-out to one
// connection: a BatchCarrier of one message or of 16 whose every member
// matches 32 subscriptions of one shared Outbox. On the fast engine the
// broker owns a carrier's messages, so the connection's one outbox run
// takes each original and the steady state allocates nothing — no replica,
// and the worker's match scratch (batch × 32 matches) is not regrown. A
// carrier of one takes the same path as a carrier of 16. The faithful
// engine still clones once per outbox run.
func TestCarrierFanoutOwnership(t *testing.T) {
	const subs = 32
	for _, engine := range []Engine{EngineFaithful, EngineFast} {
		t.Run(engine.String(), func(t *testing.T) {
			for _, batch := range []int{1, 16} {
				t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
					b := newTestBroker(t, Options{Engine: engine, SubscriberBuffer: batch})
					o := b.NewOutbox()
					for i := 0; i < subs; i++ {
						if _, err := o.Subscribe("t", nil, nil); err != nil {
							t.Fatal(err)
						}
					}
					msgs := make([]*jms.Message, batch)
					for i := range msgs {
						msgs[i] = jms.NewMessage("t")
						msgs[i].SetBody(make([]byte, 4<<10))
					}
					ctx := context.Background()
					var got []Delivery
					fanout := func() {
						c := GetBatchCarrier()
						c.Msgs = append(c.Msgs, msgs...)
						if err := b.Publisher(0).PublishBatchCarrier(ctx, c); err != nil {
							t.Fatal(err)
						}
						got = got[:0]
						for len(got) < batch*subs {
							if got = o.Take(got, batch*subs); len(got) < batch*subs {
								<-o.Ready()
							}
						}
					}
					fanout()
					for i, d := range got {
						if want := msgs[i/subs]; (d.Msg == want) != (engine == EngineFast) {
							t.Fatalf("delivery %d: message %p, published %p; want the original only on the fast engine", i, d.Msg, want)
						}
					}
					if engine != EngineFast {
						return
					}
					if allocs := testing.AllocsPerRun(100, fanout); allocs > 0 {
						t.Errorf("%v allocs per %d-message carrier fanned out to %d subscriptions, want 0", allocs, batch, subs)
					}
				})
			}
		})
	}
}
