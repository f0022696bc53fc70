package broker

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/jms"
	"repro/internal/topic"
)

// fillCarrier loads a pooled carrier with n fresh messages for topicName.
func fillCarrier(topicName string, n int) *BatchCarrier {
	c := GetBatchCarrier()
	for i := 0; i < n; i++ {
		c.Msgs = append(c.Msgs, jms.NewMessage(topicName))
	}
	return c
}

// TestPublishBatchCarrierDelivers hammers the carrier path on both engines:
// several publishers pushing pooled carriers concurrently while the
// pipeline's committing goroutine recycles them after transmit. Run under
// -race this is the recycle-after-transmit check — a carrier touched after
// hand-off, or recycled before its last transmit, trips the detector.
func TestPublishBatchCarrierDelivers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine Engine
	}{
		{"faithful", EngineFaithful},
		{"fast", EngineFast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				publishers = 4
				batches    = 50
				batchSize  = 16
			)
			b := newTestBroker(t, Options{
				Engine: tc.engine, Shards: 4,
				InFlight: 64, SubscriberBuffer: publishers * batches * batchSize,
			})
			sub, err := b.Subscribe("t", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < batches; i++ {
						c := fillCarrier("t", batchSize)
						if err := b.Publisher(0).PublishBatchCarrier(ctx, c); err != nil {
							t.Error(err)
							c.Release()
							return
						}
					}
				}()
			}
			wg.Wait()
			want := publishers * batches * batchSize
			deadline := time.After(5 * time.Second)
			for got := 0; got < want; got++ {
				select {
				case m := <-sub.Chan():
					if m.Header.Topic != "t" {
						t.Fatalf("delivered topic %q", m.Header.Topic)
					}
				case <-deadline:
					t.Fatalf("delivered %d of %d before timeout", got, want)
				}
			}
		})
	}
}

// TestPublishBatchCarrierSmallBatches covers the degenerate sizes: empty
// (a no-op that recycles the carrier at once) and single-message (a batch
// of one, delivered like any other).
func TestPublishBatchCarrierSmallBatches(t *testing.T) {
	b := newTestBroker(t, Options{})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Publisher(0).PublishBatchCarrier(ctx, fillCarrier("t", 0)); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := b.Publisher(0).PublishBatchCarrier(ctx, fillCarrier("t", 1)); err != nil {
		t.Fatalf("single message: %v", err)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := sub.Receive(rctx); err != nil {
		t.Fatalf("single-message batch not delivered: %v", err)
	}
}

// TestPublishBatchCarrierMultiTopic: a batch spanning topics is split into
// same-topic runs and must still deliver everything.
func TestPublishBatchCarrierMultiTopic(t *testing.T) {
	b := newTestBroker(t, Options{})
	if err := b.ConfigureTopic("u"); err != nil {
		t.Fatal(err)
	}
	subT, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	subU, err := b.Subscribe("u", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := GetBatchCarrier()
	c.Msgs = append(c.Msgs, jms.NewMessage("t"), jms.NewMessage("u"), jms.NewMessage("t"))
	if err := b.Publisher(0).PublishBatchCarrier(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := subT.Receive(ctx); err != nil {
			t.Fatalf("topic t delivery %d: %v", i, err)
		}
	}
	if _, err := subU.Receive(ctx); err != nil {
		t.Fatalf("topic u delivery: %v", err)
	}
}

// TestPublishBatchCarrierErrorOwnership: on error the caller keeps the
// carrier — Release must return it to a reusable state.
func TestPublishBatchCarrierErrorOwnership(t *testing.T) {
	b := newTestBroker(t, Options{})
	ctx := context.Background()
	c := fillCarrier("no-such-topic", 2)
	err := b.Publisher(0).PublishBatchCarrier(ctx, c)
	if !errors.Is(err, topic.ErrNoSuchTopic) {
		t.Fatalf("err = %v, want ErrNoSuchTopic", err)
	}
	c.Release()

	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publisher(0).PublishBatchCarrier(ctx, fillCarrier("t", 2)); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := sub.Receive(rctx); err != nil {
			t.Fatalf("delivery %d after error recovery: %v", i, err)
		}
	}
}

// TestBatchCarrierRecycleZeroes: a recycled carrier must not pin the
// previous batch's messages through its retained capacity.
func TestBatchCarrierRecycleZeroes(t *testing.T) {
	c := new(BatchCarrier)
	c.Msgs = append(c.Msgs, jms.NewMessage("t"), jms.NewMessage("t"))
	c.recycle()
	if len(c.Msgs) != 0 {
		t.Fatalf("recycle left %d messages", len(c.Msgs))
	}
	for i, m := range c.Msgs[:cap(c.Msgs)] {
		if m != nil {
			t.Errorf("Msgs[%d] still pinned after recycle", i)
		}
	}
}

// TestBatchCarrierOversizedNotPooled: carriers above the retention bound
// are abandoned, mirroring the wire buffer pool's policy.
func TestBatchCarrierOversizedNotPooled(t *testing.T) {
	c := new(BatchCarrier)
	c.Msgs = make([]*jms.Message, maxCarrierMsgs+1)
	c.Msgs[0] = jms.NewMessage("t")
	c.recycle()
	if c.Msgs[0] == nil {
		t.Error("oversized carrier was scrubbed; recycle should abandon it untouched")
	}
}

// TestPublishBatchBorrowsMessages: PublishBatch's runs travel in pooled
// carriers that borrow the caller's messages, so the fast engine, which
// hands a wire batch's originals to their last outbox run, gives every run
// of an in-process batch a replica; and the caller's slice is its own
// again once the call returns.
func TestPublishBatchBorrowsMessages(t *testing.T) {
	const batch, subs = 4, 2
	b := newTestBroker(t, Options{Engine: EngineFast})
	o := b.NewOutbox()
	for i := 0; i < subs; i++ {
		if _, err := o.Subscribe("t", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	published := make([]*jms.Message, batch)
	for i := range published {
		published[i] = jms.NewMessage("t")
	}
	msgs := append([]*jms.Message(nil), published...)
	if err := b.PublishBatch(context.Background(), msgs); err != nil {
		t.Fatal(err)
	}
	clear(msgs)
	var got []Delivery
	for len(got) < batch*subs {
		if got = o.Take(got, batch*subs); len(got) < batch*subs {
			<-o.Ready()
		}
	}
	for i, d := range got {
		if d.Msg == nil || d.Msg == published[i/subs] {
			t.Fatalf("delivery %d: message %p, published %p; want a replica", i, d.Msg, published[i/subs])
		}
	}
}

// TestPubUnitSize: every worker preallocates Options.InFlight intake units,
// so the unit must not grow: a carrier pointer and the enqueue stamp.
func TestPubUnitSize(t *testing.T) {
	if got := unsafe.Sizeof(pubUnit{}); got != 16 {
		t.Errorf("unsafe.Sizeof(pubUnit{}) = %d, want 16", got)
	}
}

// countSlab is a Slab that counts the references dropped on it.
type countSlab struct{ unrefs atomic.Int32 }

func (s *countSlab) Unref() { s.unrefs.Add(1) }

// publishSlab publishes one message in a carrier holding slab s. The
// worker serves one carrier at a time, so taking a later carrier's
// deliveries shows it is done with this one.
func publishSlab(t *testing.T, b *Broker, s Slab) {
	t.Helper()
	c := fillCarrier("t", 1)
	c.Retain(s)
	if err := b.Publisher(0).PublishBatchCarrier(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseLastHoldDropsSlabs: a carrier's slab reference is dropped by
// the last hold on it and by no earlier one — the worker's, or any of the
// deliveries queued in shared outboxes, whichever comes last — on both
// engines (the faithful one's clones hold the carrier as the originals do).
func TestReleaseLastHoldDropsSlabs(t *testing.T) {
	for _, engine := range []Engine{EngineFaithful, EngineFast} {
		t.Run(engine.String(), func(t *testing.T) {
			b := newTestBroker(t, Options{Engine: engine})
			o1, o2 := b.NewOutbox(), b.NewOutbox()
			for _, o := range []*Outbox{o1, o1, o2} {
				if _, err := o.Subscribe("t", nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			s := &countSlab{}
			publishSlab(t, b, s)
			publishSlab(t, b, &countSlab{})
			first, second := takeN(t, o1, 4), takeN(t, o2, 2)
			holds := []Hold{first[0].Hold(), first[1].Hold(), second[0].Hold()}
			holds[0].Join(holds[1])
			if holds[0].n != 2 || holds[2].n != 1 {
				t.Fatalf("holds of one message's deliveries: %d and %d, want 2 and 1", holds[0].n, holds[2].n)
			}
			holds[0].Release()
			if n := s.unrefs.Load(); n != 0 {
				t.Fatalf("slab dropped %d times while a delivery still holds it", n)
			}
			holds[2].Release()
			if n := s.unrefs.Load(); n != 1 {
				t.Fatalf("slab dropped %d times after the last hold, want 1", n)
			}
		})
	}
}

// TestReleaseEscapes: a delivery kept past its release — in an outbox of a
// subscription's own, which Receive reads — makes the carrier escape, so its
// slab reference is never dropped however the other holds are released. A
// durable consumer's deliveries are refilled from its backlog, which its
// relay (an outbox of its own) fed: they carry no hold, so neither an acked
// consumer's unacked table nor its detach has anything to release. An
// evicted delivery releases its hold: nobody reads it.
func TestReleaseEscapes(t *testing.T) {
	t.Run("solo", func(t *testing.T) {
		b := newTestBroker(t, Options{Engine: EngineFast})
		o := b.NewOutbox()
		if _, err := o.Subscribe("t", nil, nil); err != nil {
			t.Fatal(err)
		}
		solo, err := b.Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &countSlab{}
		publishSlab(t, b, s)
		publishSlab(t, b, &countSlab{})
		for _, d := range takeN(t, o, 2) {
			d.Hold().Release()
		}
		m, err := solo.Receive(context.Background())
		if err != nil || m == nil {
			t.Fatal(err)
		}
		if n := s.unrefs.Load(); n != 0 {
			t.Errorf("slab of a message a solo subscriber keeps was dropped %d times", n)
		}
	})
	t.Run("durable", func(t *testing.T) {
		b := newTestBroker(t, Options{Engine: EngineFast})
		o := b.NewOutbox()
		if _, err := o.SubscribeDurable("t", "d", nil, DurableOptions{}, nil); err != nil {
			t.Fatal(err)
		}
		s := &countSlab{}
		publishSlab(t, b, s)
		publishSlab(t, b, &countSlab{})
		for _, d := range takeN(t, o, 2) {
			if d.Hold() != (Hold{}) {
				t.Errorf("a refilled durable delivery holds its carrier (%d holds)", d.Hold().n)
			}
		}
		if n := s.unrefs.Load(); n != 0 {
			t.Errorf("slab of a message a durable backlog kept was dropped %d times", n)
		}
	})
	t.Run("evicted", func(t *testing.T) {
		b := newTestBroker(t, Options{Engine: EngineFast, SubscriberBuffer: 1, SlowConsumer: SlowConsumerDropOldest})
		o := b.NewOutbox()
		if _, err := o.Subscribe("t", nil, nil); err != nil {
			t.Fatal(err)
		}
		s := &countSlab{}
		publishSlab(t, b, s)
		publishSlab(t, b, &countSlab{}) // evicts the first
		for b.Stats().SlowDropped == 0 {
			runtime.Gosched()
		}
		if n := s.unrefs.Load(); n != 1 {
			t.Errorf("slab of an evicted delivery dropped %d times, want 1", n)
		}
	})
}
