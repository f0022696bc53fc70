package client

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// TestPublishBatchEndToEnd drives an explicit batch over the wire and
// checks every message arrives, in order, at a subscriber.
func TestPublishBatchEndToEnd(t *testing.T) {
	addr, _ := startServer(t)
	pub := dialT(t, addr)
	sub := dialT(t, addr)
	ctx := ctxT(t)

	if err := pub.ConfigureTopic(ctx, "batch"); err != nil {
		t.Fatal(err)
	}
	subscription, err := sub.Subscribe(ctx, "batch", wire.FilterSpec{Mode: wire.FilterNone}, 64)
	if err != nil {
		t.Fatal(err)
	}

	const n = 20
	msgs := make([]*jms.Message, n)
	for i := range msgs {
		msgs[i] = jms.NewMessage("batch")
		msgs[i].SetBody([]byte(fmt.Sprintf("m%d", i)))
	}
	if err := pub.PublishBatch(ctx, msgs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := subscription.Receive(ctx)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%d", i); string(got.Body) != want {
			t.Fatalf("delivery %d = %q, want %q (batch order not preserved)", i, got.Body, want)
		}
	}
}

// TestPublishBatchDegenerateSizes pins the edge cases: an empty batch is a
// no-op and a batch of one behaves exactly like a plain Publish (it IS a
// plain PUBLISH frame on the wire).
func TestPublishBatchDegenerateSizes(t *testing.T) {
	addr, _ := startServer(t)
	pub := dialT(t, addr)
	sub := dialT(t, addr)
	ctx := ctxT(t)

	if err := pub.ConfigureTopic(ctx, "one"); err != nil {
		t.Fatal(err)
	}
	subscription, err := sub.Subscribe(ctx, "one", wire.FilterSpec{Mode: wire.FilterNone}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBatch(ctx, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	m := jms.NewMessage("one")
	m.SetBody([]byte("solo"))
	if err := pub.PublishBatch(ctx, []*jms.Message{m}); err != nil {
		t.Fatal(err)
	}
	got, err := subscription.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != "solo" {
		t.Fatalf("body = %q, want solo", got.Body)
	}
}

// TestBatchCoalescer exercises the Options.BatchMax coalescing path:
// concurrent Publish calls on one client must all succeed and deliver
// exactly once each, and a lone publish after them leaves at once.
func TestBatchCoalescer(t *testing.T) {
	addr, _ := startServer(t)
	cfg := dialT(t, addr)
	ctx := ctxT(t)
	if err := cfg.ConfigureTopic(ctx, "co"); err != nil {
		t.Fatal(err)
	}

	pub, err := DialWith(addr, Options{BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	sub := dialT(t, addr)
	subscription, err := sub.Subscribe(ctx, "co", wire.FilterSpec{Mode: wire.FilterNone}, 256)
	if err != nil {
		t.Fatal(err)
	}

	const n = 50
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := jms.NewMessage("co")
			m.SetBody([]byte(fmt.Sprintf("c%d", i)))
			errs[i] = pub.Publish(ctx, m)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	// A lone tail publish has no company to wait for.
	tail := jms.NewMessage("co")
	tail.SetBody([]byte("tail"))
	if err := pub.Publish(ctx, tail); err != nil {
		t.Fatalf("tail publish: %v", err)
	}
	seen := make(map[string]bool, n+1)
	for i := 0; i <= n; i++ {
		got, err := subscription.Receive(ctx)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if seen[string(got.Body)] {
			t.Fatalf("duplicate delivery %q", got.Body)
		}
		seen[string(got.Body)] = true
	}
	if len(seen) != n+1 || !seen["tail"] {
		t.Fatalf("delivered %d distinct messages (tail %v), want %d", len(seen), seen["tail"], n+1)
	}
}
