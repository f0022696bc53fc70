package client

import (
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// TestFanoutCopyPerSubscription: subscriptions of one connection that match
// one message get it from a single MESSAGE_FANOUT frame, each as a message
// of its own: a property set, a priority set or a body replaced on one copy
// does not show on another — with R = 32, over a full slice of views too.
func TestFanoutCopyPerSubscription(t *testing.T) {
	for _, r := range []int{3, 32} {
		addr, _ := startServer(t)
		ctx := ctxT(t)
		c := dialT(t, addr)
		if err := c.ConfigureTopic(ctx, "t"); err != nil {
			t.Fatal(err)
		}
		subs := make([]*Subscription, r)
		for i := range subs {
			var err error
			if subs[i], err = c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 4); err != nil {
				t.Fatal(err)
			}
		}
		m := jms.NewMessage("t")
		if err := m.SetStringProperty("k", "v"); err != nil {
			t.Fatal(err)
		}
		m.SetBody([]byte("fan"))
		if err := dialT(t, addr).Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
		got := make([]*jms.Message, len(subs))
		for i, s := range subs {
			var err error
			if got[i], err = s.Receive(ctx); err != nil {
				t.Fatal(err)
			}
			if string(got[i].Body) != "fan" {
				t.Fatalf("R = %d, subscription %d: body %q", r, i, got[i].Body)
			}
		}
		prio := got[0].Header.Priority
		if err := got[0].SetStringProperty("k", "changed"); err != nil {
			t.Fatal(err)
		}
		got[0].Header.Priority = prio + 1
		got[0].SetBody([]byte("new"))
		for i, g := range got[1:] {
			if g == got[0] {
				t.Fatalf("R = %d: subscriptions 0 and %d share one message", r, i+1)
			}
			if v, err := g.StringProperty("k"); err != nil || v != "v" {
				t.Errorf("R = %d, subscription %d sees k = %q (%v) after another copy changed", r, i+1, v, err)
			}
			if g.Header.Priority != prio {
				t.Errorf("R = %d, subscription %d sees priority %d after another copy changed", r, i+1, g.Header.Priority)
			}
			if string(g.Body) != "fan" {
				t.Errorf("R = %d, subscription %d sees body %q after another copy changed", r, i+1, g.Body)
			}
		}
	}
}
