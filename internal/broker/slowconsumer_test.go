package broker

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/jms"
)

// The delivery-semantics wall for the slow-consumer policies. With a
// single publisher, a subscriber queue of capacity B and K > B persistent
// messages published while the subscriber does not drain, each policy pins
// an exact multiset and order:
//
//	block        the publisher stalls; once the subscriber drains it
//	             receives all K messages 1..K in order
//	drop-oldest  the subscriber receives exactly K-B+1..K in order
//	disconnect   the subscriber receives exactly the prefix 1..B in order,
//	             then ErrSlowConsumer; a fast subscriber still gets all K
//
// Each case runs on both engines and through both the single-message and
// the batched publish path.

const (
	slowBuf  = 4
	slowMsgs = 10
)

func seqMessage(t *testing.T, i int) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetInt64Property("seq", int64(i)); err != nil {
		t.Fatal(err)
	}
	return m
}

func publishSlowSeq(b *Broker, batched bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if batched {
		msgs := make([]*jms.Message, slowMsgs)
		for i := range msgs {
			m := jms.NewMessage("t")
			if err := m.SetInt64Property("seq", int64(i+1)); err != nil {
				return err
			}
			msgs[i] = m
		}
		return b.PublishBatch(ctx, msgs)
	}
	for i := 1; i <= slowMsgs; i++ {
		m := jms.NewMessage("t")
		if err := m.SetInt64Property("seq", int64(i)); err != nil {
			return err
		}
		if err := b.Publish(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// receiveSeqs drains exactly want sequence numbers, asserting order. It
// returns an error instead of failing so goroutines may call it.
func receiveSeqs(sub *Subscriber, want []int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for pos, w := range want {
		m, err := sub.Receive(ctx)
		if err != nil {
			return fmt.Errorf("position %d: Receive: %w", pos, err)
		}
		seq, err := m.Int64Property("seq")
		if err != nil {
			return err
		}
		if seq != w {
			return fmt.Errorf("position %d: seq = %d, want %d", pos, seq, w)
		}
	}
	return nil
}

// drainAll receives all K messages in order — the fast subscriber's leg.
func drainAll(sub *Subscriber) error {
	want := make([]int64, slowMsgs)
	for i := range want {
		want[i] = int64(i + 1)
	}
	return receiveSeqs(sub, want)
}

// waitDispatched polls the Dispatched counter until every published
// message has cleared the transmit stage for every subscriber — the
// barrier that makes the slow subscriber's queue state deterministic.
func waitDispatched(t *testing.T, b *Broker, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Dispatched < want {
		if time.Now().After(deadline) {
			t.Fatalf("Dispatched = %d, want %d", b.Stats().Dispatched, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func slowConsumerCases() []struct {
	name   string
	engine Engine
} {
	return []struct {
		name   string
		engine Engine
	}{
		{"faithful", EngineFaithful},
		{"fast", EngineFast},
	}
}

// TestSlowConsumerBlockSemantics pins the block policy by count, not by
// clock: against a subscriber that does not drain, the publisher parks with
// exactly the residency Options.InFlight documents accepted — every queue
// and stage of the pipeline full — and stays parked until the subscriber
// drains, which then yields every message in order.
func TestSlowConsumerBlockSemantics(t *testing.T) {
	const inFlight, shards = 2, 2 // pinned: the bound must not follow GOMAXPROCS
	for _, ec := range slowConsumerCases() {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", ec.name, batched), func(t *testing.T) {
				bound := inFlight + 1 + slowBuf
				if ec.engine == EngineFast {
					bound = 3*inFlight + shards + 2 + slowBuf
				}
				total := bound + 1
				b := newTestBroker(t, Options{
					Engine:           ec.engine,
					InFlight:         inFlight,
					Shards:           shards,
					SubscriberBuffer: slowBuf,
					SlowConsumer:     SlowConsumerBlock,
				})
				// probe subscribes first, so the transmit stage hands it each
				// message before blocking on slow: Dispatched then counts how
				// far the committer has got.
				probe, err := b.SubscribeBuffered("t", nil, total)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := b.Subscribe("t", nil)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				pubDone := make(chan struct{})
				if batched {
					// A batch occupies a single in-flight slot, so the batched
					// publisher returns without blocking by design.
					msgs := make([]*jms.Message, total)
					for i := range msgs {
						msgs[i] = seqMessage(t, i+1)
					}
					if err := b.PublishBatch(ctx, msgs); err != nil {
						t.Fatal(err)
					}
					close(pubDone)
				} else {
					// Fill slow's queue and park the committer on message
					// slowBuf+1 one publish at a time, so nothing is in the
					// reorder buffer when the rest floods in behind it.
					next := 1
					for ; next <= slowBuf+1; next++ {
						if err := b.Publish(ctx, seqMessage(t, next)); err != nil {
							t.Fatal(err)
						}
						waitDispatched(t, b, uint64(min(2*next, 2*slowBuf+1)))
					}
					rest := make([]*jms.Message, 0, total-slowBuf-1)
					for ; next <= total; next++ {
						rest = append(rest, seqMessage(t, next))
					}
					go func() {
						defer close(pubDone)
						for _, m := range rest {
							if err := b.Publish(ctx, m); err != nil {
								t.Error(err)
								return
							}
						}
					}()
					// Push-back: the pipeline fills to the bound and the last
					// Publish parks on the full in-flight window.
					deadline := time.Now().Add(5 * time.Second)
					for b.Stats().Received < uint64(bound) {
						if time.Now().After(deadline) {
							t.Fatalf("Received = %d, never reached the bound %d", b.Stats().Received, bound)
						}
						time.Sleep(time.Millisecond)
					}
					time.Sleep(10 * time.Millisecond) // room for an overrun to show
					select {
					case <-pubDone:
						t.Fatal("publisher completed against a blocked subscriber; push-back did not propagate")
					default:
					}
					if got := b.Stats().Received; got != uint64(bound) {
						t.Fatalf("Received = %d with the subscriber blocked, want the bound %d", got, bound)
					}
				}
				// Draining releases the push-back and yields every message
				// in order — the paper's lossless blocking regime.
				want := make([]int64, total)
				for i := range want {
					want[i] = int64(i + 1)
				}
				if err := receiveSeqs(slow, want); err != nil {
					t.Fatal(err)
				}
				if err := receiveSeqs(probe, want); err != nil {
					t.Fatal(err)
				}
				select {
				case <-pubDone:
				case <-time.After(5 * time.Second):
					t.Fatal("publisher still blocked after subscriber drained")
				}
				// A delivery is counted before it can be received.
				st := b.Stats()
				if st.SlowDropped != 0 || st.SlowDisconnects != 0 {
					t.Errorf("block policy counted slow-consumer actions: %+v", st)
				}
				if st.Dispatched != uint64(2*total) {
					t.Errorf("Dispatched = %d, want %d", st.Dispatched, 2*total)
				}
			})
		}
	}
}

func TestSlowConsumerDropOldestSemantics(t *testing.T) {
	for _, ec := range slowConsumerCases() {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", ec.name, batched), func(t *testing.T) {
				b := newTestBroker(t, Options{
					Engine:           ec.engine,
					InFlight:         64,
					SubscriberBuffer: slowBuf,
					SlowConsumer:     SlowConsumerDropOldest,
				})
				slow, err := b.Subscribe("t", nil)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := b.SubscribeBuffered("t", nil, 4*slowMsgs)
				if err != nil {
					t.Fatal(err)
				}
				fastDone := make(chan struct{})
				go func() {
					defer close(fastDone)
					if err := drainAll(fast); err != nil {
						t.Error(err)
					}
				}()
				if err := publishSlowSeq(b, batched); err != nil {
					t.Fatal(err)
				}
				<-fastDone
				// Evicted copies stay counted in Dispatched, so 2K marks
				// every transmit (both subscribers) complete.
				waitDispatched(t, b, 2*slowMsgs)

				// The slow subscriber holds exactly the last B messages, in
				// order: K-B+1 .. K.
				want := make([]int64, slowBuf)
				for i := range want {
					want[i] = int64(slowMsgs - slowBuf + i + 1)
				}
				if err := receiveSeqs(slow, want); err != nil {
					t.Fatal(err)
				}
				if rest := drainQueued(slow); len(rest) != 0 {
					t.Errorf("slow queue still holds %d messages", len(rest))
				}
				st := b.Stats()
				if st.SlowDropped != slowMsgs-slowBuf {
					t.Errorf("SlowDropped = %d, want %d", st.SlowDropped, slowMsgs-slowBuf)
				}
				if st.SlowDisconnects != 0 {
					t.Errorf("SlowDisconnects = %d, want 0", st.SlowDisconnects)
				}
				// Both subscribers stay attached.
				if b.NumFilters() != 2 {
					t.Errorf("NumFilters = %d, want 2", b.NumFilters())
				}
			})
		}
	}
}

func TestSlowConsumerDisconnectSemantics(t *testing.T) {
	for _, ec := range slowConsumerCases() {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", ec.name, batched), func(t *testing.T) {
				b := newTestBroker(t, Options{
					Engine:           ec.engine,
					InFlight:         64,
					SubscriberBuffer: slowBuf,
					SlowConsumer:     SlowConsumerDisconnect,
				})
				slow, err := b.Subscribe("t", nil)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := b.SubscribeBuffered("t", nil, 4*slowMsgs)
				if err != nil {
					t.Fatal(err)
				}
				fastDone := make(chan struct{})
				go func() {
					defer close(fastDone)
					if err := drainAll(fast); err != nil {
						t.Error(err)
					}
				}()
				if err := publishSlowSeq(b, batched); err != nil {
					t.Fatal(err)
				}
				<-fastDone

				// The kick happened on message B+1: Gone must be closed.
				select {
				case <-slow.Gone():
				case <-time.After(5 * time.Second):
					t.Fatal("slow subscriber was not disconnected")
				}
				if !slow.SlowDisconnected() {
					t.Error("SlowDisconnected = false after kick")
				}
				// Exactly the prefix 1..B was delivered, in order; it stays
				// receivable after the kick.
				done := doneContext()
				for pos := 0; pos < slowBuf; pos++ {
					m, err := slow.Receive(done)
					if err != nil {
						t.Fatalf("queue empty at position %d (%v), want prefix of %d", pos, err, slowBuf)
					}
					seq, err := m.Int64Property("seq")
					if err != nil {
						t.Fatal(err)
					}
					if seq != int64(pos+1) {
						t.Fatalf("position %d: seq = %d, want %d", pos, seq, pos+1)
					}
				}
				if rest := drainQueued(slow); len(rest) != 0 {
					t.Errorf("slow queue holds %d extra messages", len(rest))
				}
				// Receive reports the typed error once the queue is empty.
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				if _, err := slow.Receive(ctx); !errors.Is(err, ErrSlowConsumer) {
					t.Errorf("Receive after kick = %v, want ErrSlowConsumer", err)
				}
				if _, err := slow.Receive(ctx); !errors.Is(err, ErrClosed) {
					t.Errorf("ErrSlowConsumer must wrap ErrClosed; got %v", err)
				}
				cancel()
				// The subscription is gone from the registry; the fast one
				// remains and received everything (asserted by drainAll).
				if b.NumFilters() != 1 {
					t.Errorf("NumFilters = %d, want 1 after disconnect", b.NumFilters())
				}
				st := b.Stats()
				if st.SlowDisconnects != 1 {
					t.Errorf("SlowDisconnects = %d, want 1", st.SlowDisconnects)
				}
				if st.SlowDropped != 0 {
					t.Errorf("SlowDropped = %d, want 0", st.SlowDropped)
				}
				// Unsubscribe after a kick is a harmless no-op.
				if err := slow.Unsubscribe(); err != nil {
					t.Errorf("Unsubscribe after kick: %v", err)
				}
			})
		}
	}
}

// TestSlowConsumerDropOldestConcurrentReceive races the eviction loop
// against a consumer that drains at full speed: every message must be
// either received or counted as evicted, with no loss and no duplication.
func TestSlowConsumerDropOldestConcurrentReceive(t *testing.T) {
	b := newTestBroker(t, Options{
		Engine:           EngineFast,
		InFlight:         64,
		SubscriberBuffer: 2,
		SlowConsumer:     SlowConsumerDropOldest,
	})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 2000
	received := make(chan int64, msgs)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		ctx := context.Background()
		for {
			m, err := sub.Receive(ctx)
			if err != nil {
				return
			}
			seq, err := m.Int64Property("seq")
			if err != nil {
				return
			}
			received <- seq
			if seq == msgs {
				return
			}
		}
	}()
	ctx := context.Background()
	for i := 1; i <= msgs; i++ {
		if err := b.Publish(ctx, seqMessage(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-recvDone:
	case <-time.After(10 * time.Second):
		t.Fatal("receiver did not observe the final message")
	}
	close(received)
	var got uint64
	last := int64(0)
	for seq := range received {
		if seq <= last {
			t.Fatalf("out of order or duplicate: %d after %d", seq, last)
		}
		last = seq
		got++
	}
	st := b.Stats()
	if got+st.SlowDropped != msgs {
		t.Errorf("received %d + evicted %d != published %d", got, st.SlowDropped, msgs)
	}
}
