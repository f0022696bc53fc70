package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultnet"
	"repro/internal/jms"
	"repro/internal/wire"
)

// startChaosServer brings up a broker behind a fault-injecting listener.
func startChaosServer(t testing.TB, cfg faultnet.Config) (addr string, fn *faultnet.Network, b *broker.Broker) {
	t.Helper()
	b = broker.New(broker.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn = faultnet.New(cfg)
	srv := wire.Serve(b, fn.Wrap(ln))
	t.Cleanup(func() {
		_ = srv.Close()
		_ = b.Close()
	})
	return ln.Addr().String(), fn, b
}

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Jitter stays within the configured spread.
	j := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := j.Delay(0, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered Delay(0) = %v outside [50ms, 150ms]", d)
		}
	}
}

// TestErrLostClassification is the satellite fix: a server-side
// disconnect mid-call must be distinguishable from a clean local Close.
func TestErrLostClassification(t *testing.T) {
	addr, fn, _ := startChaosServer(t, faultnet.Config{Seed: 1})
	c := dialT(t, addr)
	ctx := ctxT(t)
	if err := c.ConfigureTopic(ctx, "t"); err != nil {
		t.Fatal(err)
	}

	// Cut the connection under the client, then observe a call failure.
	fn.KillAll()
	<-c.Done()
	err := c.ConfigureTopic(ctx, "t2")
	if !errors.Is(err, ErrLost) {
		t.Fatalf("error after server-side cut = %v, want errors.Is(err, ErrLost)", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("lost-connection error must keep matching ErrClosed for old callers, got %v", err)
	}
	if got := c.Err(); !errors.Is(got, ErrLost) {
		t.Fatalf("Err() = %v, want ErrLost match", got)
	}

	// A clean local Close stays plain ErrClosed: not retryable.
	c2 := dialT(t, addr)
	_ = c2.Close()
	err = c2.ConfigureTopic(ctx, "t3")
	if !errors.Is(err, ErrClosed) || errors.Is(err, ErrLost) {
		t.Fatalf("error after local Close = %v, want ErrClosed and not ErrLost", err)
	}
}

func dialReliableT(t testing.TB, addr string, opts ReliableOptions) *Reliable {
	t.Helper()
	if opts.Backoff.Base == 0 {
		opts.Backoff = Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: 0.2}
	}
	r, err := DialReliable(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// TestChaosExactlyOnce is the acceptance chaos test: a publisher and a
// durable acked subscriber complete a fixed message count with zero
// loss, no duplicates, and order preserved, while faultnet kills every
// live connection between each batch — at least three cuts per client.
func TestChaosExactlyOnce(t *testing.T) {
	addr, fn, _ := startChaosServer(t, faultnet.Config{Seed: 42})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pub := dialReliableT(t, addr, ReliableOptions{Seed: 7, PublisherID: "chaos-pub"})
	sub := dialReliableT(t, addr, ReliableOptions{Seed: 8})
	if err := pub.ConfigureTopic(ctx, "chaos"); err != nil {
		t.Fatal(err)
	}
	rs, err := sub.Subscribe(ctx, "chaos",
		wire.FilterSpec{Mode: wire.FilterNone, DurableName: "chaos-sub", Acked: true}, 16)
	if err != nil {
		t.Fatal(err)
	}

	const batches = 4
	const perBatch = 50
	const total = batches * perBatch

	// Receiver: collect the full stream concurrently with the kills.
	type recvResult struct {
		bodies []int
		err    error
	}
	recvCh := make(chan recvResult, 1)
	go func() {
		var got []int
		for len(got) < total {
			m, err := rs.Receive(ctx)
			if err != nil {
				recvCh <- recvResult{got, err}
				return
			}
			n, err := strconv.Atoi(string(m.Body))
			if err != nil {
				recvCh <- recvResult{got, fmt.Errorf("bad body %q: %w", m.Body, err)}
				return
			}
			got = append(got, n)
		}
		recvCh <- recvResult{got, nil}
	}()

	next := 0
	for batch := 0; batch < batches; batch++ {
		for i := 0; i < perBatch; i++ {
			next++
			m := jms.NewMessage("chaos")
			m.Body = []byte(strconv.Itoa(next))
			if err := pub.Publish(ctx, m); err != nil {
				t.Fatalf("publish %d: %v", next, err)
			}
		}
		if batch == batches-1 {
			break
		}
		// Cut every live connection. Both clients have one: the publisher
		// just completed an acked publish, and the subscriber is waited for
		// until it has come back from the previous cut — a connection killed
		// while it is still re-subscribing is a failed redial attempt, not a
		// new loss, and would leave the counters below one short. So every
		// batch boundary cuts both, giving each client at least
		// batches-1 = 3 kills.
		for deadline := time.Now().Add(10 * time.Second); sub.Metrics().Counter(MetricReconnects).Value() < uint64(batch); {
			if time.Now().After(deadline) {
				t.Fatalf("batch %d: subscriber never came back from the previous cut", batch)
			}
			time.Sleep(time.Millisecond)
		}
		waitConns(t, fn, 2)
		if killed := fn.KillAll(); killed < 2 {
			t.Fatalf("batch %d: KillAll cut %d connections, want >= 2", batch, killed)
		}
	}

	res := <-recvCh
	if res.err != nil {
		t.Fatalf("receiver died after %d messages: %v", len(res.bodies), res.err)
	}
	for i, n := range res.bodies {
		if n != i+1 {
			t.Fatalf("position %d: got message %d, want %d (loss, duplication or reorder)", i, n, i+1)
		}
	}
	if s := fn.Stats(); s.Resets < 2*(batches-1) {
		t.Fatalf("injected resets = %d, want >= %d", s.Resets, 2*(batches-1))
	}
	lost := pub.Metrics().Counter(MetricConnectionsLost).Value() +
		sub.Metrics().Counter(MetricConnectionsLost).Value()
	if lost < 2*(batches-1) {
		t.Errorf("clients observed %d connection losses, want >= %d", lost, 2*(batches-1))
	}
	if rec := sub.Metrics().Counter(MetricReconnects).Value(); rec < batches-1 {
		t.Errorf("subscriber reconnects = %d, want >= %d", rec, batches-1)
	}
}

// waitConns polls until the fault network sees at least n live
// connections (reconnects in progress have landed).
func waitConns(t testing.TB, fn *faultnet.Network, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fn.NumConns() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d live connections (have %d)", n, fn.NumConns())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosMidFrameResets drives a publisher through connections that
// die after a fixed byte budget on the publisher's own writes — publish
// frames are cut mid-frame — and checks complete, duplicate-free
// arrival at the broker.
func TestChaosMidFrameResets(t *testing.T) {
	addr, _, b := startChaosServer(t, faultnet.Config{Seed: 9})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Wrap the client side: each outgoing connection dies after ~1.5KiB
	// of publish traffic, mid-frame.
	fn := faultnet.New(faultnet.Config{Seed: 13, ResetAfterBytes: 1500})
	dial := func() (*Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return NewClient(fn.WrapConn(conn)), nil
	}
	pub, err := NewReliable(dial, ReliableOptions{
		Seed:        11,
		PublisherID: "midframe-pub",
		Backoff:     Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.ConfigureTopic(ctx, "mf"); err != nil {
		t.Fatal(err)
	}
	// Count locally: subscribe straight on the broker (the fault network
	// only wraps the server's wire connections; broker-side subscribers
	// see the deduped stream the server admitted).
	bsub, err := b.Subscribe("mf", nil)
	if err != nil {
		t.Fatal(err)
	}
	const total = 60
	for i := 1; i <= total; i++ {
		m := jms.NewMessage("mf")
		m.Body = []byte(strconv.Itoa(i))
		if err := pub.Publish(ctx, m); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	seen := make(map[int]bool)
	for len(seen) < total {
		m, err := bsub.Receive(ctx)
		if err != nil {
			t.Fatalf("after %d distinct messages: %v", len(seen), err)
		}
		n, _ := strconv.Atoi(string(m.Body))
		if seen[n] {
			t.Fatalf("duplicate publish %d reached the broker (dedupe failed)", n)
		}
		seen[n] = true
	}
	if s := fn.Stats(); s.Resets == 0 {
		t.Fatal("byte budget injected no resets; the test exercised nothing")
	}
}

// TestReliablePublishRestampsReusedMessage: re-publishing the same
// message object is a new publish — the reliability layer must restamp
// the dedupe sequence, or the server would ack it as a duplicate and
// silently drop it.
func TestReliablePublishRestampsReusedMessage(t *testing.T) {
	addr, _, b := startChaosServer(t, faultnet.Config{Seed: 2})
	ctx := ctxT(t)
	pub := dialReliableT(t, addr, ReliableOptions{Seed: 31, PublisherID: "reuse-pub"})
	if err := pub.ConfigureTopic(ctx, "reuse"); err != nil {
		t.Fatal(err)
	}
	bsub, err := b.Subscribe("reuse", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := jms.NewMessage("reuse")
	m.Body = []byte("x")
	const repeats = 3
	for i := 0; i < repeats; i++ {
		if err := pub.Publish(ctx, m); err != nil {
			t.Fatalf("publish %d of reused message: %v", i, err)
		}
	}
	seen := make(map[int64]bool)
	for i := 0; i < repeats; i++ {
		got, err := bsub.Receive(ctx)
		if err != nil {
			t.Fatalf("after %d deliveries: %v (reused message swallowed by dedupe?)", i, err)
		}
		seq, err := got.Int64Property(wire.PubSeqProperty)
		if err != nil {
			t.Fatal(err)
		}
		if seen[seq] {
			t.Fatalf("sequence %d delivered twice", seq)
		}
		seen[seq] = true
	}
}

// TestPublishFailureReleasesSequence: a stamped publish that fails in
// the broker must not burn its (pub, seq) in the dedupe table — after
// the client fixes the error (creates the topic), the retried sequence
// must be published, not acked as a duplicate.
func TestPublishFailureReleasesSequence(t *testing.T) {
	addr, _, b := startChaosServer(t, faultnet.Config{Seed: 4})
	ctx := ctxT(t)
	c := dialT(t, addr)
	m := jms.NewMessage("late")
	m.Body = []byte("x")
	if err := m.SetStringProperty(wire.PubIDProperty, "late-pub"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property(wire.PubSeqProperty, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ctx, m); err == nil {
		t.Fatal("publish to a missing topic succeeded")
	}
	if err := c.ConfigureTopic(ctx, "late"); err != nil {
		t.Fatal(err)
	}
	bsub, err := b.Subscribe("late", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ctx, m); err != nil {
		t.Fatalf("retry after fixing the topic: %v", err)
	}
	got, err := bsub.Receive(ctx)
	if err != nil {
		t.Fatalf("retried publish never delivered (sequence burned by the failed attempt): %v", err)
	}
	if string(got.Body) != "x" {
		t.Fatalf("Body = %q, want %q", got.Body, "x")
	}
}

// TestReliableStateCallbacksAndGiveUp: losing the server flips the state
// to reconnecting; an exhausted redial budget reports closed.
func TestReliableStateCallbacksAndGiveUp(t *testing.T) {
	b := broker.New(broker.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(b, ln)
	addr := ln.Addr().String()

	var reconnecting, closedState atomic.Bool
	stateCh := make(chan State, 16)
	r, err := DialReliable(addr, ReliableOptions{
		Backoff:    Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		MaxRedials: 3,
		Seed:       5,
		OnState: func(s State, err error) {
			switch s {
			case StateReconnecting:
				reconnecting.Store(true)
			case StateClosed:
				closedState.Store(true)
			}
			select {
			case stateCh <- s:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Take the server down for good: the redial budget must run out.
	_ = srv.Close()
	_ = b.Close()

	deadline := time.Now().Add(10 * time.Second)
	for !closedState.Load() {
		if time.Now().After(deadline) {
			t.Fatal("redial budget never exhausted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !reconnecting.Load() {
		t.Error("never observed StateReconnecting")
	}
	ctx := ctxT(t)
	if err := r.ConfigureTopic(ctx, "x"); err == nil {
		t.Error("call succeeded on a given-up connection")
	}
}

// TestReliableNonDurableResubscribe: a plain subscription is transparently
// re-established — new traffic flows after the cut (messages during the
// gap may be lost; that is non-durable semantics).
func TestReliableNonDurableResubscribe(t *testing.T) {
	addr, fn, _ := startChaosServer(t, faultnet.Config{Seed: 3})
	ctx := ctxT(t)

	pub := dialReliableT(t, addr, ReliableOptions{Seed: 21})
	sub := dialReliableT(t, addr, ReliableOptions{Seed: 22})
	if err := pub.ConfigureTopic(ctx, "nd"); err != nil {
		t.Fatal(err)
	}
	rs, err := sub.Subscribe(ctx, "nd", wire.FilterSpec{Mode: wire.FilterNone}, 16)
	if err != nil {
		t.Fatal(err)
	}

	fn.KillAll()
	// Wait until the subscriber's reconnect registered a new filter.
	deadline := time.Now().Add(10 * time.Second)
	for sub.Metrics().Counter(MetricResubscribes).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no resubscribe after cut")
		}
		time.Sleep(2 * time.Millisecond)
	}

	m := jms.NewMessage("nd")
	m.Body = []byte("after")
	if err := pub.Publish(ctx, m); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != "after" {
		t.Fatalf("Body = %q, want %q", got.Body, "after")
	}
	if err := rs.Unsubscribe(ctx); err != nil {
		t.Fatal(err)
	}
}
