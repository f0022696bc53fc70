package client

import (
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// TestFanoutCopyPerSubscription: subscriptions of one connection that match
// one message get it from a single MESSAGE_FANOUT frame, each as a message
// of its own: a property set on one copy does not show on another.
func TestFanoutCopyPerSubscription(t *testing.T) {
	addr, _ := startServer(t)
	ctx := ctxT(t)
	c := dialT(t, addr)
	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscription, 3)
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
			t.Fatalf("subscription %d: body %q", i, got[i].Body)
		}
	}
	if err := got[0].SetStringProperty("k", "changed"); err != nil {
		t.Fatal(err)
	}
	for i, g := range got[1:] {
		if g == got[0] {
			t.Fatalf("subscriptions 0 and %d share one message", i+1)
		}
		if v, err := g.StringProperty("k"); err != nil || v != "v" {
			t.Errorf("subscription %d sees k = %q (%v) after another copy changed", i+1, v, err)
		}
	}
}
