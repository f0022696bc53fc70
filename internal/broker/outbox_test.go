package broker

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/jms"
)

// takeN takes deliveries off o until it holds n of them, waiting on Ready
// while the outbox is empty.
func takeN(t *testing.T, o *Outbox, n int) []Delivery {
	t.Helper()
	var got []Delivery
	deadline := time.After(5 * time.Second)
	for {
		if got = o.Take(got, n-len(got)); len(got) >= n {
			return got
		}
		select {
		case <-o.Ready():
		case <-deadline:
			t.Fatalf("took %d deliveries, want %d", len(got), n)
		}
	}
}

// deliverySeqs reads each delivery's "seq" property; a disconnect notice
// reads -1.
func deliverySeqs(t *testing.T, ds []Delivery) []int64 {
	t.Helper()
	seqs := make([]int64, len(ds))
	for i, d := range ds {
		if d.Msg == nil {
			seqs[i] = -1
			continue
		}
		seq, err := d.Msg.Int64Property("seq")
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	return seqs
}

// runsOf is lo..hi-1 with each number repeated k times: k subscriptions'
// deliveries of each message, back to back.
func runsOf(lo, hi, k int) []int64 {
	var seqs []int64
	for i := lo; i < hi; i++ {
		for j := 0; j < k; j++ {
			seqs = append(seqs, int64(i))
		}
	}
	return seqs
}

// TestOutboxQueuesOneRunPerMessage: a message's deliveries to the
// subscriptions of one outbox are queued back to back as one copy, in
// publish order; an in-process subscription on the same topic gets a copy
// in its own outbox, and Dispatched counts every subscription.
func TestOutboxQueuesOneRunPerMessage(t *testing.T) {
	for _, ec := range slowConsumerCases() {
		t.Run(ec.name, func(t *testing.T) {
			const msgs, width = 5, 3
			b := newTestBroker(t, Options{Engine: ec.engine})
			o := b.NewOutbox()
			subs := make([]*Subscriber, width)
			for i := range subs {
				var err error
				if subs[i], err = o.Subscribe("t", nil, i); err != nil {
					t.Fatal(err)
				}
			}
			plain, err := b.Subscribe("t", nil)
			if err != nil {
				t.Fatal(err)
			}
			publishSeq(t, b, "t", 0, msgs)
			got := takeN(t, o, width*msgs)
			if seqs := deliverySeqs(t, got); !reflect.DeepEqual(seqs, runsOf(0, msgs, width)) {
				t.Fatalf("queued %v, want each message once per subscription, in order", seqs)
			}
			for i, d := range got {
				if d.Msg != got[i-i%width].Msg {
					t.Fatalf("delivery %d: one message's run holds two copies", i)
				}
				if d.Sub != subs[i%width] || d.Sub.Tag() != i%width {
					t.Fatalf("delivery %d went to the subscription tagged %v", i, d.Sub.Tag())
				}
			}
			receiveSeq(t, plain, 0, 1, 2, 3, 4)
			waitFor(t, func() bool { return b.Stats().Dispatched == (width+1)*msgs })
			for _, h := range subs {
				if n := h.Delivered(); n != msgs {
					t.Errorf("Delivered = %d, want %d", n, msgs)
				}
			}
		})
	}
}

// TestOutboxSlowConsumerPolicies pins the three policies on an outbox nobody
// drains. It holds SubscriberBuffer deliveries per subscription: two
// subscriptions of buffer 2 hold two messages' runs, and the third message
// meets the policy.
func TestOutboxSlowConsumerPolicies(t *testing.T) {
	const buf, msgs = 2, 5
	for _, policy := range []SlowConsumerPolicy{SlowConsumerBlock, SlowConsumerDropOldest, SlowConsumerDisconnect} {
		t.Run(policy.String(), func(t *testing.T) {
			b := newTestBroker(t, Options{SlowConsumer: policy, SubscriberBuffer: buf})
			o := b.NewOutbox()
			var subs []*Subscriber
			for _, tag := range []string{"a", "c"} {
				h, err := o.Subscribe("t", nil, tag)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, h)
			}
			switch policy {
			case SlowConsumerBlock:
				// The publisher runs ahead of the outbox, which parks the
				// transmit stage until Take makes room; nothing is lost.
				pubDone := make(chan error, 1)
				go func() {
					for i := 0; i < msgs; i++ {
						m := jms.NewMessage("t")
						if err := m.SetInt64Property("seq", int64(i)); err != nil {
							pubDone <- err
							return
						}
						if err := b.Publish(context.Background(), m); err != nil {
							pubDone <- err
							return
						}
					}
					pubDone <- nil
				}()
				if got := deliverySeqs(t, takeN(t, o, 2*msgs)); !reflect.DeepEqual(got, runsOf(0, msgs, 2)) {
					t.Errorf("took %v, want every message once per subscription", got)
				}
				if err := <-pubDone; err != nil {
					t.Fatal(err)
				}
			case SlowConsumerDropOldest:
				publishSeq(t, b, "t", 0, msgs)
				// Evicted deliveries stay counted, so 2·msgs marks the end.
				waitFor(t, func() bool { return b.Stats().Dispatched == 2*msgs })
				if got := deliverySeqs(t, o.Take(nil, 2*msgs)); !reflect.DeepEqual(got, runsOf(msgs-buf, msgs, 2)) {
					t.Errorf("queued %v, want the last %d messages' runs", got, buf)
				}
				if n := b.Stats().SlowDropped; n != 2*(msgs-buf) {
					t.Errorf("SlowDropped = %d, want %d", n, 2*(msgs-buf))
				}
			case SlowConsumerDisconnect:
				publishSeq(t, b, "t", 0, msgs)
				waitFor(t, func() bool { return b.Stats().SlowDisconnects == 2 && b.NumFilters() == 0 })
				want := append(runsOf(0, buf, 2), -1, -1)
				if got := deliverySeqs(t, o.Take(nil, 2*msgs)); !reflect.DeepEqual(got, want) {
					t.Errorf("queued %v, want %v: the runs that fit, then a notice per subscription", got, want)
				}
				for _, h := range subs {
					if !h.SlowDisconnected() {
						t.Errorf("subscription %v not disconnected", h.Tag())
					}
				}
			}
			if st := b.Stats(); st.Dropped != 0 || policy != SlowConsumerDropOldest && st.SlowDropped != 0 {
				t.Errorf("stats %+v", st)
			}
		})
	}
}

// TestOutboxUnsubscribeReleasesParkedTransmit: a transmit parked on a full
// outbox wakes when the subscription it waits on leaves, skips it, and the
// topic moves on.
func TestOutboxUnsubscribeReleasesParkedTransmit(t *testing.T) {
	b := newTestBroker(t, Options{SubscriberBuffer: 1})
	o := b.NewOutbox()
	h, err := o.Subscribe("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The faithful engine hands each message to h before plain, so plain
	// sees message n only once h's delivery of it was queued or skipped.
	plain, err := b.SubscribeBuffered("t", nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, b, "t", 0, 3)
	receiveSeq(t, plain, 0)
	if err := h.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	receiveSeq(t, plain, 1, 2)
	if got := deliverySeqs(t, o.Take(nil, 8)); !reflect.DeepEqual(got, []int64{0}) {
		t.Errorf("queued %v, want only the message that fitted before the unsubscribe", got)
	}
}

// TestOutboxCloseReleasesParkedTransmit: closing an outbox whose consumer is
// gone wakes a transmit parked on its full subscription, which skips it as
// the transmits after it do, and the topic moves on; Take then returns
// nothing.
func TestOutboxCloseReleasesParkedTransmit(t *testing.T) {
	b := newTestBroker(t, Options{SubscriberBuffer: 1})
	o := b.NewOutbox()
	if _, err := o.Subscribe("t", nil, nil); err != nil {
		t.Fatal(err)
	}
	plain, err := b.SubscribeBuffered("t", nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, b, "t", 0, 3)
	receiveSeq(t, plain, 0)
	o.Close()
	receiveSeq(t, plain, 1, 2)
	if got := o.Take(nil, 8); len(got) != 0 {
		t.Errorf("took %d deliveries from a closed outbox", len(got))
	}
}

// TestOutboxParkAllocs: a transmit parked on a full subscription and woken
// by the Take that makes room costs no allocation once the outbox has parked
// one: its wake channel is reused, not made per park. Closing stop still
// unparks it. Count-based: the test waits for the park under the outbox's
// lock, not for a duration.
func TestOutboxParkAllocs(t *testing.T) {
	b := newTestBroker(t, Options{SubscriberBuffer: 1})
	o := b.NewOutbox()
	h, err := o.Subscribe("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs, m, stop := []*Subscriber{h}, jms.NewMessage("t"), make(chan struct{})
	put := func() { o.put(m, nil, subs, jms.Persistent, SlowConsumerBlock, stop) }
	put() // h is full from here on
	kick, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range kick {
			put()
			done <- struct{}{}
		}
	}()
	defer close(kick)
	waitParked := func() {
		for {
			o.mu.Lock()
			parked := len(o.waiters)
			o.mu.Unlock()
			if parked > 0 {
				return
			}
			runtime.Gosched()
		}
	}
	dst := make([]Delivery, 0, 1)
	cycle := func() {
		kick <- struct{}{}
		waitParked()
		if dst = o.Take(dst[:0], 1); len(dst) != 1 {
			t.Fatalf("took %d deliveries, want 1", len(dst))
		}
		<-done
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("park/wake cycle: %v allocs, want 0", allocs)
	}

	kick <- struct{}{}
	waitParked()
	close(stop)
	<-done
	if st := b.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d after stop unparked a full transmit, want 1", st.Dropped)
	}
	if o.mu.Lock(); len(o.waiters) != 0 {
		t.Errorf("%d transmits still listed as parked", len(o.waiters))
	}
	o.mu.Unlock()
}

// TestOutboxDurableDetachRequeues: a durable consumer on an outbox detaches
// with deliveries still queued there. They go back to the head of the
// backlog behind the unacked one handed to UnsubscribeRequeue and ahead of
// what arrived while it was away.
func TestOutboxDurableDetachRequeues(t *testing.T) {
	b := newTestBroker(t, Options{})
	o := b.NewOutbox()
	h, err := o.SubscribeDurable("t", "d", nil, DurableOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, b, "t", 0, 4)
	unacked := takeN(t, o, 1)[0].Msg
	// The relay and the consumer each count the four messages.
	waitFor(t, func() bool { return b.Stats().Dispatched == 8 })
	if err := h.UnsubscribeRequeue([]*jms.Message{unacked}); err != nil {
		t.Fatal(err)
	}
	publishSeq(t, b, "t", 4, 5)
	waitFor(t, func() bool {
		n, _, err := b.DurableBacklog("t", "d")
		return err == nil && n == 5
	})
	c, err := b.SubscribeDurable("t", "d", nil, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	receiveSeq(t, c, 0, 1, 2, 3, 4)
	if rest := o.Take(nil, 8); len(rest) != 0 {
		t.Errorf("%d deliveries left in the outbox after the detach", len(rest))
	}
}

// TestOutboxDropOldestSparesOtherSubscriptions: under drop-oldest a full
// subscription evicts only its own deliveries. A durable consumer sharing
// the outbox with it loses nothing — its deliveries wait for room instead —
// and after a detach and a reattach it receives every message.
func TestOutboxDropOldestSparesOtherSubscriptions(t *testing.T) {
	const buf, msgs = 2, 10
	b := newTestBroker(t, Options{SlowConsumer: SlowConsumerDropOldest, SubscriberBuffer: buf})
	o := b.NewOutbox()
	durable, err := o.SubscribeDurable("t", "d", nil, DurableOptions{}, "durable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Subscribe("t", nil, "plain"); err != nil {
		t.Fatal(err)
	}
	// One at a time, so the durable's relay — an in-process subscription
	// of the same buffer and policy — never falls behind. Each message is
	// then in the backlog or in the outbox, and at most the newest one
	// still on its way from the relay.
	for i := 0; i < msgs; i++ {
		publishSeq(t, b, "t", i, i+1)
		waitFor(t, func() bool {
			n, _, err := b.DurableBacklog("t", "d")
			return err == nil && uint64(n)+durable.Delivered() >= uint64(i)
		})
	}
	waitFor(t, func() bool { return b.Stats().SlowDropped == msgs-buf })
	if err := durable.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	c, err := b.SubscribeDurable("t", "d", nil, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	receiveSeq(t, c, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if got := deliverySeqs(t, o.Take(nil, 2*msgs)); !reflect.DeepEqual(got, []int64{msgs - 2, msgs - 1}) {
		t.Errorf("outbox holds %v, want the plain subscription's last %d", got, buf)
	}
	if n := b.Stats().SlowDropped; n != msgs-buf {
		t.Errorf("SlowDropped = %d, want %d: only the plain subscription's", n, msgs-buf)
	}
}
