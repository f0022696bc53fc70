package broker

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

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
						if err := b.PublishBatchCarrier(ctx, c); err != nil {
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

// TestPublishBatchCarrierSmallBatches covers the degenerate sizes that
// bypass the pipeline's batch path: empty (a no-op) and single-message
// (routed through Publish). Both recycle the carrier immediately.
func TestPublishBatchCarrierSmallBatches(t *testing.T) {
	b := newTestBroker(t, Options{})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.PublishBatchCarrier(ctx, fillCarrier("t", 0)); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := b.PublishBatchCarrier(ctx, fillCarrier("t", 1)); err != nil {
		t.Fatalf("single message: %v", err)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := sub.Receive(rctx); err != nil {
		t.Fatalf("single-message batch not delivered: %v", err)
	}
}

// TestPublishBatchCarrierMultiTopic: a batch spanning topics falls back to
// PublishBatch's run splitting and must still deliver everything.
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
	if err := b.PublishBatchCarrier(context.Background(), c); err != nil {
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
	err := b.PublishBatchCarrier(ctx, c)
	if !errors.Is(err, topic.ErrNoSuchTopic) {
		t.Fatalf("err = %v, want ErrNoSuchTopic", err)
	}
	c.Release()

	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishBatchCarrier(ctx, fillCarrier("t", 2)); err != nil {
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
