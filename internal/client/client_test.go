package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
	"repro/internal/wire"
)

// startServer brings up a broker with a TCP frontend on the loopback
// interface and returns its address.
func startServer(t testing.TB) (addr string, b *broker.Broker) {
	t.Helper()
	b = broker.New(broker.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(b, ln)
	t.Cleanup(func() {
		_ = srv.Close()
		_ = b.Close()
	})
	return ln.Addr().String(), b
}

func dialT(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func ctxT(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestEndToEndPublishSubscribe(t *testing.T) {
	addr, _ := startServer(t)
	pub := dialT(t, addr)
	sub := dialT(t, addr)
	ctx := ctxT(t)

	if err := pub.ConfigureTopic(ctx, "presence"); err != nil {
		t.Fatal(err)
	}
	subscription, err := sub.Subscribe(ctx, "presence",
		wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: "#0"}, 16)
	if err != nil {
		t.Fatal(err)
	}

	m := jms.NewMessage("presence")
	if err := m.SetCorrelationID("#0"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(ctx, m); err != nil {
		t.Fatal(err)
	}

	got, err := subscription.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.CorrelationID != "#0" {
		t.Errorf("corrID = %q", got.Header.CorrelationID)
	}
	if v, _ := got.StringProperty("user"); v != "alice" {
		t.Errorf("user = %q", v)
	}
}

func TestSelectorFilterOverWire(t *testing.T) {
	addr, _ := startServer(t)
	c := dialT(t, addr)
	ctx := ctxT(t)

	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	matched, err := c.Subscribe(ctx, "t",
		wire.FilterSpec{Mode: wire.FilterSelector, Expr: "region = 'EU' AND prio > 2"}, 16)
	if err != nil {
		t.Fatal(err)
	}

	send := func(region string, prio int64) {
		t.Helper()
		m := jms.NewMessage("t")
		if err := m.SetStringProperty("region", region); err != nil {
			t.Fatal(err)
		}
		if err := m.SetInt64Property("prio", prio); err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	send("EU", 5) // matches
	send("US", 5) // region mismatch
	send("EU", 1) // prio mismatch
	send("EU", 3) // matches

	first, err := matched.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := matched.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := first.Int64Property("prio")
	p2, _ := second.Int64Property("prio")
	if p1 != 5 || p2 != 3 {
		t.Errorf("received prios %d,%d; want 5,3", p1, p2)
	}
}

func TestServerErrorSurfaced(t *testing.T) {
	addr, _ := startServer(t)
	c := dialT(t, addr)
	ctx := ctxT(t)

	// Publish to a topic that does not exist.
	err := c.Publish(ctx, jms.NewMessage("missing"))
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("err = %v, want *ServerError", err)
	}

	// Bad selector must fail at subscribe time.
	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterSelector, Expr: "a ="}, 1)
	if !errors.As(err, &srvErr) {
		t.Errorf("bad selector err = %v, want *ServerError", err)
	}

	// Duplicate topic.
	if err := c.ConfigureTopic(ctx, "t"); !errors.As(err, &srvErr) {
		t.Errorf("duplicate topic err = %v, want *ServerError", err)
	}
}

func TestUnsubscribeOverWire(t *testing.T) {
	addr, b := startServer(t)
	c := dialT(t, addr)
	ctx := ctxT(t)

	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumFilters() != 1 {
		t.Fatalf("NumFilters = %d", b.NumFilters())
	}
	if err := sub.Unsubscribe(ctx); err != nil {
		t.Fatal(err)
	}
	if b.NumFilters() != 0 {
		t.Errorf("NumFilters after unsubscribe = %d", b.NumFilters())
	}
	if _, err := sub.Receive(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Receive after Unsubscribe = %v, want ErrClosed", err)
	}
	// Unsubscribing twice reports a server error (unknown subscription).
	var srvErr *ServerError
	if err := sub.Unsubscribe(ctx); !errors.As(err, &srvErr) {
		t.Errorf("double unsubscribe err = %v", err)
	}
}

func TestDisconnectCleansSubscriptions(t *testing.T) {
	// Non-durable mode: subscriptions vanish when the connection drops.
	addr, b := startServer(t)
	c := dialT(t, addr)
	ctx := ctxT(t)

	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 16); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.NumFilters() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("NumFilters = %d after disconnect, want 0", b.NumFilters())
}

func TestConcurrentPublishersOverWire(t *testing.T) {
	// The paper's setup: several saturated publishers, one or more
	// subscribers, each with an exclusive connection.
	addr, _ := startServer(t)
	ctx := ctxT(t)

	admin := dialT(t, addr)
	if err := admin.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	subConn := dialT(t, addr)
	sub, err := subConn.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 4096)
	if err != nil {
		t.Fatal(err)
	}

	const publishers = 5
	const perPublisher = 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = c.Close() }()
			for i := 0; i < perPublisher; i++ {
				if err := c.Publish(ctx, jms.NewMessage("t")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for i := 0; i < publishers*perPublisher; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
	}
}

func TestPing(t *testing.T) {
	addr, _ := startServer(t)
	c := dialT(t, addr)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPingWaitsForPong: a peer that reads the PING but never answers leaves
// Ping waiting until its context ends.
func TestPingWaitsForPong(t *testing.T) {
	local, remote := net.Pipe()
	go func() {
		for {
			if _, err := wire.ReadFrame(remote); err != nil {
				return
			}
		}
	}()
	c := NewClient(local)
	defer func() { _ = c.Close(); _ = remote.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Ping against a silent peer = %v, want context.DeadlineExceeded", err)
	}
}

// TestPingConcurrent: each PONG echoes its PING's request ID, so Pings on
// one client may run side by side.
func TestPingConcurrent(t *testing.T) {
	addr, _ := startServer(t)
	c := dialT(t, addr)
	ctx := ctxT(t)
	errs := make(chan error, 16)
	for range 16 {
		go func() { errs <- c.Ping(ctx) }()
	}
	for range 16 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublishAfterClose(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close = %v", err)
	}
	err = c.Publish(context.Background(), jms.NewMessage("t"))
	if err == nil {
		t.Error("Publish after Close succeeded")
	}
}

func BenchmarkPublishOverLoopback(b *testing.B) {
	addr, _ := startServer(b)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		b.Fatal(err)
	}
	m := jms.NewMessage("t")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Publish(ctx, m); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDurableSubscriptionOverWire(t *testing.T) {
	addr, b := startServer(t)
	ctx := ctxT(t)

	admin := dialT(t, addr)
	if err := admin.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}

	// First consumer connection registers the durable subscription,
	// receives one message, then disconnects entirely.
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.FilterSpec{Mode: wire.FilterNone, DurableName: "alice"}
	sub1, err := c1.Subscribe(ctx, "t", spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	first := jms.NewMessage("t")
	if err := first.SetInt64Property("seq", 0); err != nil {
		t.Fatal(err)
	}
	if err := admin.Publish(ctx, first); err != nil {
		t.Fatal(err)
	}
	if _, err := sub1.Receive(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the server-side teardown to detach the durable consumer;
	// only then is offline traffic guaranteed to land in the backlog.
	detachDeadline := time.Now().Add(2 * time.Second)
	for {
		attached, err := b.DurableAttached("t", "alice")
		if err != nil {
			t.Fatal(err)
		}
		if !attached {
			break
		}
		if time.Now().After(detachDeadline) {
			t.Fatal("durable consumer never detached after connection close")
		}
		time.Sleep(time.Millisecond)
	}

	// Offline traffic accumulates in the broker-side backlog.
	for i := int64(1); i <= 3; i++ {
		m := jms.NewMessage("t")
		if err := m.SetInt64Property("seq", i); err != nil {
			t.Fatal(err)
		}
		if err := admin.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	backlogDeadline := time.Now().Add(2 * time.Second)
	for {
		n, _, err := b.DurableBacklog("t", "alice")
		if err != nil {
			t.Fatal(err)
		}
		if n == 3 {
			break
		}
		if time.Now().After(backlogDeadline) {
			t.Fatalf("backlog = %d, want 3", n)
		}
		time.Sleep(time.Millisecond)
	}

	// A new connection reattaches under the same name and filter; the
	// backlog replays in order.
	c2 := dialT(t, addr)
	sub2, err := c2.Subscribe(ctx, "t", spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 3; want++ {
		m, err := sub2.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.Int64Property("seq")
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
	}

	// Deleting while attached fails; after unsubscribing it succeeds.
	var srvErr *ServerError
	if err := c2.DeleteDurable(ctx, "t", "alice"); !errors.As(err, &srvErr) {
		t.Errorf("delete while attached err = %v", err)
	}
	if err := sub2.Unsubscribe(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c2.DeleteDurable(ctx, "t", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := c2.DeleteDurable(ctx, "t", "alice"); !errors.As(err, &srvErr) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestDurableDoubleAttachOverWire(t *testing.T) {
	addr, _ := startServer(t)
	ctx := ctxT(t)
	admin := dialT(t, addr)
	if err := admin.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	spec := wire.FilterSpec{Mode: wire.FilterNone, DurableName: "d"}
	c1, c2 := dialT(t, addr), dialT(t, addr)
	if _, err := c1.Subscribe(ctx, "t", spec, 4); err != nil {
		t.Fatal(err)
	}
	var srvErr *ServerError
	if _, err := c2.Subscribe(ctx, "t", spec, 4); !errors.As(err, &srvErr) {
		t.Errorf("second durable attach err = %v, want server error", err)
	}
}
