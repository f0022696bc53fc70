package broker

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/topic"
)

func newTestBroker(t testing.TB, opts Options) *Broker {
	t.Helper()
	b := New(opts)
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

func publishCorr(t testing.TB, b *Broker, corrID string) {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID(corrID); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(context.Background(), m); err != nil {
		t.Fatal(err)
	}
}

func TestPublishSubscribeRoundTrip(t *testing.T) {
	b := newTestBroker(t, Options{})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	publishCorr(t, b, "#0")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := sub.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.CorrelationID != "#0" {
		t.Errorf("received corrID = %q", m.Header.CorrelationID)
	}
	if sub.Delivered() != 1 {
		t.Errorf("Delivered = %d, want 1", sub.Delivered())
	}
}

func TestFilterSelectsSubset(t *testing.T) {
	b := newTestBroker(t, Options{})
	f0, err := filter.NewCorrelationID("#0")
	if err != nil {
		t.Fatal(err)
	}
	f1, err := filter.NewCorrelationID("#1")
	if err != nil {
		t.Fatal(err)
	}
	sub0, err := b.Subscribe("t", f0)
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := b.Subscribe("t", f1)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		publishCorr(t, b, "#0")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := sub0.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := sub1.Delivered(); got != 0 {
		t.Errorf("non-matching subscriber received %d messages", got)
	}
	stats := b.Stats()
	if stats.Received != 10 {
		t.Errorf("Received = %d, want 10", stats.Received)
	}
	if stats.Dispatched != 10 {
		t.Errorf("Dispatched = %d, want 10", stats.Dispatched)
	}
	// 10 messages scanned against 2 filters each.
	if stats.FilterEvals != 20 {
		t.Errorf("FilterEvals = %d, want 20", stats.FilterEvals)
	}
}

func TestReplicationGrade(t *testing.T) {
	// R matching subscribers -> every message is dispatched R times.
	const r = 5
	b := newTestBroker(t, Options{})
	f0, err := filter.NewCorrelationID("#0")
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscriber, r)
	for i := range subs {
		s, err := b.Subscribe("t", f0)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	const msgs = 20
	for i := 0; i < msgs; i++ {
		publishCorr(t, b, "#0")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range subs {
		for i := 0; i < msgs; i++ {
			if _, err := s.Receive(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := b.Stats().Dispatched; got != r*msgs {
		t.Errorf("Dispatched = %d, want %d", got, r*msgs)
	}
}

func TestReplicasAreIndependentCopies(t *testing.T) {
	b := newTestBroker(t, Options{})
	s1, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := jms.NewMessage("t")
	if err := m.SetStringProperty("k", "orig"); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r1, err := s1.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("replicas share the same message instance")
	}
	if err := r1.SetStringProperty("k", "mutated"); err != nil {
		t.Fatal(err)
	}
	if v, _ := r2.StringProperty("k"); v != "orig" {
		t.Error("mutating one replica affected the other")
	}
}

func TestPublishValidation(t *testing.T) {
	b := newTestBroker(t, Options{})
	ctx := context.Background()

	if err := b.Publish(ctx, jms.NewMessage("missing")); !errors.Is(err, topic.ErrNoSuchTopic) {
		t.Errorf("publish to missing topic err = %v", err)
	}
	bad := jms.NewMessage("t")
	bad.Header.Priority = 42
	if err := b.Publish(ctx, bad); err == nil {
		t.Error("invalid message accepted")
	}
}

func TestPublishBlocksUntilContextCancel(t *testing.T) {
	b := New(Options{InFlight: 1, SubscriberBuffer: 1})
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if _, err := b.Subscribe("t", nil); err != nil {
		t.Fatal(err)
	}

	// Fill the pipeline: once the subscriber buffer, the dispatcher, and
	// the in-flight window are all occupied, a timed Publish must block
	// until its context expires. The dispatcher may drain one slot after
	// the window first reports full, so retry until the block is observed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := b.Publish(ctx, jms.NewMessage("t"))
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Error("Publish never blocked despite a stalled subscriber")
}

func TestNonPersistentDropsWhenFull(t *testing.T) {
	b := New(Options{InFlight: 16, SubscriberBuffer: 1})
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if _, err := b.Subscribe("t", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m := jms.NewMessage("t")
		m.Header.DeliveryMode = jms.NonPersistent
		if err := b.Publish(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the dispatcher to process everything: 1 delivered, 9 dropped.
	waitFor(t, func() bool {
		s := b.Stats()
		return s.Dispatched+s.Dropped == 10
	})
	s := b.Stats()
	if s.Dispatched != 1 || s.Dropped != 9 {
		t.Errorf("Dispatched=%d Dropped=%d, want 1/9", s.Dispatched, s.Dropped)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := newTestBroker(t, Options{})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	publishCorr(t, b, "#0")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := sub.Receive(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Errorf("second Unsubscribe err = %v, want nil (idempotent)", err)
	}
	if b.NumFilters() != 0 {
		t.Errorf("NumFilters after unsubscribe = %d", b.NumFilters())
	}
	publishCorr(t, b, "#0")
	if _, err := sub.Receive(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Receive after Unsubscribe = %v, want ErrClosed", err)
	}
}

func TestCloseDrainsAcceptedMessages(t *testing.T) {
	b := New(Options{InFlight: 64, SubscriberBuffer: 64})
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 32
	for i := 0; i < msgs; i++ {
		if err := b.Publish(context.Background(), jms.NewMessage("t")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// All accepted messages must be deliverable after Close (persistent,
	// non-durable semantics for connected subscribers).
	got := 0
	for range sub.Chan() {
		got++
	}
	if got != msgs {
		t.Errorf("drained %d messages after Close, want %d", got, msgs)
	}
	if err := b.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close err = %v, want ErrClosed", err)
	}
	if err := b.Publish(context.Background(), jms.NewMessage("t")); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after Close err = %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe("t", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after Close err = %v, want ErrClosed", err)
	}
	if err := b.ConfigureTopic("t2"); !errors.Is(err, ErrClosed) {
		t.Errorf("ConfigureTopic after Close err = %v, want ErrClosed", err)
	}
}

func TestTopicsIsolation(t *testing.T) {
	b := New(Options{})
	for _, name := range []string{"a", "b"} {
		if err := b.ConfigureTopic(name); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { _ = b.Close() }()

	subA, err := b.Subscribe("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := b.Subscribe("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(context.Background(), jms.NewMessage("a")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := subA.Receive(ctx); err != nil {
		t.Fatal(err)
	}
	if got := subB.Delivered(); got != 0 {
		t.Errorf("topic isolation violated: subB got %d messages", got)
	}
	names := b.Topics()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Topics = %v", names)
	}
}

// TestObserverSeesFiltersAndReplication reads the two parameters of the
// paper's model for one message off the faithful engine's counters:
// FilterEvals is n_fltr (a linear scan tests every installed filter) and
// Dispatched is R.
func TestObserverSeesFiltersAndReplication(t *testing.T) {
	b := newTestBroker(t, Options{Engine: EngineFaithful})

	f0, err := filter.NewCorrelationID("#0")
	if err != nil {
		t.Fatal(err)
	}
	f1, err := filter.NewCorrelationID("#1")
	if err != nil {
		t.Fatal(err)
	}
	// 2 matching + 3 non-matching filters: n_fltr=5, R=2.
	for i := 0; i < 2; i++ {
		if _, err := b.Subscribe("t", f0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Subscribe("t", f1); err != nil {
			t.Fatal(err)
		}
	}
	publishCorr(t, b, "#0")
	// The match stage counts its evaluations before the transmit stage
	// counts deliveries, so once both copies are out n_fltr is final.
	waitFor(t, func() bool { return b.Stats().Dispatched == 2 })
	if got := b.Stats().FilterEvals; got != 5 {
		t.Errorf("n_fltr = %d filter evaluations, want 5", got)
	}
	if got := b.Stats().Dispatched; got != 2 {
		t.Errorf("R = %d deliveries, want 2", got)
	}
}

func TestInOrderDelivery(t *testing.T) {
	// Persistent mode: messages are delivered reliably and in order.
	b := newTestBroker(t, Options{InFlight: 256, SubscriberBuffer: 256})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 200
	for i := 0; i < msgs; i++ {
		m := jms.NewMessage("t")
		if err := m.SetInt64Property("seq", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Publish(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < msgs; i++ {
		m, err := sub.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.Int64Property("seq")
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Fatalf("out of order: got seq %d at position %d", seq, i)
		}
	}
}

func TestConcurrentPublishers(t *testing.T) {
	// The paper uses 5 saturated publishers; verify correctness under
	// concurrent publishing.
	b := newTestBroker(t, Options{InFlight: 128, SubscriberBuffer: 4096})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	const publishers = 5
	const perPublisher = 200

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if err := b.Publish(context.Background(), jms.NewMessage("t")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < publishers*perPublisher; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
	}
	s := b.Stats()
	if s.Received != publishers*perPublisher {
		t.Errorf("Received = %d, want %d", s.Received, publishers*perPublisher)
	}
}

func TestDynamicFilterInstallDuringOperation(t *testing.T) {
	// Filters are installed dynamically during operation (unlike topics).
	b := newTestBroker(t, Options{})
	sub1, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	publishCorr(t, b, "#0")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := sub1.Receive(ctx); err != nil {
		t.Fatal(err)
	}

	sub2, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	publishCorr(t, b, "#1")
	if _, err := sub1.Receive(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sub2.Receive(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShortIDAgainstOverlappingRangeAffixes: a correlation ID shorter than
// a range rule's prefix plus suffix ("ab" against "ab[1;2]b") used to slice
// out of bounds on the dispatch goroutine — one subscriber plus one
// publisher took the broker down. Both engines must reject it and keep
// dispatching.
func TestShortIDAgainstOverlappingRangeAffixes(t *testing.T) {
	for name, engine := range map[string]Engine{"faithful": EngineFaithful, "fast": EngineFast} {
		t.Run(name, func(t *testing.T) {
			b := newTestBroker(t, Options{Engine: engine})
			f, err := filter.NewCorrelationID("ab[1;2]b")
			if err != nil {
				t.Fatal(err)
			}
			sub, err := b.Subscribe("t", f)
			if err != nil {
				t.Fatal(err)
			}
			publishCorr(t, b, "ab")
			publishCorr(t, b, "ab1b")
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			m, err := sub.Receive(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if m.Header.CorrelationID != "ab1b" {
				t.Errorf("received %q, want only ab1b", m.Header.CorrelationID)
			}
		})
	}
}

func BenchmarkDispatchNoFilters(b *testing.B) {
	br := New(Options{InFlight: 1024, SubscriberBuffer: 1 << 20})
	if err := br.ConfigureTopic("t"); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = br.Close() }()
	sub, err := br.Subscribe("t", nil)
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for range sub.Chan() {
		}
	}()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish(ctx, jms.NewMessage("t")); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExpiredMessagesDiscarded(t *testing.T) {
	b := newTestBroker(t, Options{})
	// Inject a clock far in the future so expirations trigger
	// deterministically.
	fixed := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return fixed }

	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	expired := jms.NewMessage("t")
	expired.Header.Expiration = fixed.Add(-time.Second).UnixNano()
	if err := b.Publish(context.Background(), expired); err != nil {
		t.Fatal(err)
	}
	fresh := jms.NewMessage("t")
	fresh.Header.Expiration = fixed.Add(time.Hour).UnixNano()
	if err := b.Publish(context.Background(), fresh); err != nil {
		t.Fatal(err)
	}
	forever := jms.NewMessage("t")
	if err := b.Publish(context.Background(), forever); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// Only the fresh and the non-expiring message arrive.
	m1, err := sub.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Header.Expiration == 0 {
		t.Error("first delivery should be the fresh expiring message")
	}
	if _, err := sub.Receive(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.Stats().Expired == 1 })
	s := b.Stats()
	if s.Dispatched != 2 {
		t.Errorf("Dispatched = %d, want 2", s.Dispatched)
	}
	// No filter work is spent on expired messages.
	if s.FilterEvals != 2 {
		t.Errorf("FilterEvals = %d, want 2", s.FilterEvals)
	}
}
