package broker

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/filter"
	"repro/internal/jms"
)

// The paper studies the persistent non-durable mode, where "messages are
// forwarded only to subscribers who are presently online". This file adds
// the durable mode the paper contrasts it with: a durable subscription is
// identified by a name; while its consumer is disconnected, matching
// messages are buffered ("the server requires a significant amount of
// buffer space to store messages in the durable mode") and delivered in
// order on reattach. The buffering cost is exactly why the paper's
// throughput study uses the non-durable mode.
//
// Structure: a hidden relay subscription feeds a per-name backlog; a
// delivery goroutine per attached consumer drains the backlog strictly in
// order, so replay and live traffic never interleave out of order.

// Errors of the durable subsystem.
var (
	// ErrDurableActive is returned when attaching to a durable
	// subscription that already has a live consumer, or deleting one.
	ErrDurableActive = errors.New("broker: durable subscription already active")
	// ErrNoSuchDurable is returned when querying or deleting an unknown
	// durable subscription.
	ErrNoSuchDurable = errors.New("broker: no such durable subscription")
	// ErrDurableFilterMismatch is returned when reattaching with a
	// different filter; JMS requires deleting the subscription first.
	ErrDurableFilterMismatch = errors.New("broker: durable subscription exists with a different filter")
)

// durableSub is the server-side state of a named durable subscription.
type durableSub struct {
	name  string
	topic string
	fltr  filter.Filter
	relay *Subscriber

	mu       sync.Mutex
	cond     *sync.Cond
	backlog  []*jms.Message
	limit    int
	active   *Subscriber
	overflow uint64
	pumpDone bool
	deleted  bool
	// detachReq asks the current delivery goroutine to stop; deliverDone
	// is closed when it has fully exited (so detach/attach serialize and
	// in-flight messages are requeued before anyone else runs).
	detachReq   bool
	deliverDone chan struct{}
	// preRequeue holds the active consumer's unacked deliveries handed in
	// by UnsubscribeRequeue; finish() prepends them to the backlog ahead
	// of the channel residual (they left the channel first, so that is
	// their original order).
	preRequeue []*jms.Message

	stop     chan struct{}
	stopOnce sync.Once
}

func (d *durableSub) signalStop() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// DurableOptions configure a durable subscription.
type DurableOptions struct {
	// BacklogLimit bounds the stored messages; the oldest are discarded
	// beyond it (the broker's buffer space is finite). Default 4096.
	BacklogLimit int
}

// SubscribeDurable creates (or reattaches to) the named durable
// subscription on a topic. While no consumer is attached, matching
// messages accumulate in the backlog; on attach the backlog is delivered
// first, in publication order, followed by live traffic. The filter must
// be identical across attaches of the same name; use UnsubscribeDurable to
// change it.
func (b *Broker) SubscribeDurable(topicName, name string, f filter.Filter, opts DurableOptions) (*Subscriber, error) {
	return b.subscribeDurable(topicName, name, f, opts, nil, nil)
}

// subscribeDurable is SubscribeDurable for a consumer that delivers to o,
// or, with o nil, to a channel of its own.
func (b *Broker) subscribeDurable(topicName, name string, f filter.Filter, opts DurableOptions, o *Outbox, tag any) (*Subscriber, error) {
	if name == "" {
		return nil, errors.New("broker: empty durable subscription name")
	}
	if f == nil {
		f = filter.All{}
	}
	if opts.BacklogLimit <= 0 {
		opts.BacklogLimit = 4096
	}
	key := topicName + "\x00" + name

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if d, ok := b.durables[key]; ok {
		b.mu.Unlock()
		if d.fltr.String() != f.String() {
			return nil, fmt.Errorf("%w: %q", ErrDurableFilterMismatch, name)
		}
		return b.attachDurable(d, o, tag)
	}
	b.mu.Unlock()

	// First registration: install the hidden relay. Subscribe validates
	// the topic and takes the broker lock itself.
	relay, err := b.Subscribe(topicName, f)
	if err != nil {
		return nil, err
	}
	d := &durableSub{
		name:  name,
		topic: topicName,
		fltr:  f,
		relay: relay,
		limit: opts.BacklogLimit,
		stop:  make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = relay.Unsubscribe()
		return nil, ErrClosed
	}
	if existing, raced := b.durables[key]; raced {
		b.mu.Unlock()
		_ = relay.Unsubscribe()
		if existing.fltr.String() != f.String() {
			return nil, fmt.Errorf("%w: %q", ErrDurableFilterMismatch, name)
		}
		return b.attachDurable(existing, o, tag)
	}
	if b.durables == nil {
		b.durables = make(map[string]*durableSub)
	}
	b.durables[key] = d
	b.mu.Unlock()

	b.wg.Add(1)
	go b.durablePump(d)
	return b.attachDurable(d, o, tag)
}

// durablePump appends relay deliveries to the backlog. It never delivers
// to consumers directly — the per-consumer delivery goroutine owns that —
// so ordering is trivially the backlog order.
func (b *Broker) durablePump(d *durableSub) {
	defer b.wg.Done()
	enqueue := func(m *jms.Message) {
		d.mu.Lock()
		if len(d.backlog) >= d.limit {
			copy(d.backlog, d.backlog[1:])
			d.backlog = d.backlog[:len(d.backlog)-1]
			d.overflow++
			b.countAdd(&b.dropped, 1)
		}
		d.backlog = append(d.backlog, m)
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	for {
		select {
		case m, ok := <-d.relay.Chan():
			if !ok {
				b.finishPump(d)
				return
			}
			enqueue(m)
		case <-d.stop:
			// Drain what the dispatcher already handed over.
			for {
				select {
				case m, ok := <-d.relay.Chan():
					if !ok {
						b.finishPump(d)
						return
					}
					enqueue(m)
				default:
					b.finishPump(d)
					return
				}
			}
		}
	}
}

func (b *Broker) finishPump(d *durableSub) {
	d.mu.Lock()
	d.pumpDone = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// attachDurable connects a consumer handle, delivering to o when set, and
// starts its delivery goroutine.
func (b *Broker) attachDurable(d *durableSub, o *Outbox, tag any) (*Subscriber, error) {
	h := &Subscriber{broker: b, gone: make(chan struct{}), durable: d, out: o, tag: tag}
	if o == nil {
		h.ch = make(chan *jms.Message, b.opts.SubscriberBuffer)
	}
	d.mu.Lock()
	if d.deleted {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q on %q", ErrNoSuchDurable, d.name, d.topic)
	}
	if d.active != nil {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDurableActive, d.name)
	}
	d.active = h
	d.detachReq = false
	d.deliverDone = make(chan struct{})
	d.cond.Broadcast()
	d.mu.Unlock()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		d.mu.Lock()
		d.active = nil
		d.mu.Unlock()
		return nil, ErrClosed
	}
	b.durableHandles[h] = struct{}{}
	// Add under the lock: Close sets closed before waiting, so the Add
	// cannot race a Wait that already started.
	b.wg.Add(1)
	b.mu.Unlock()

	go b.durableDeliver(d, h)
	return h, nil
}

// durableDeliver drains the backlog into the consumer channel in order.
// It is the sole writer of h.ch and the sole goroutine that clears
// d.active, so attach/detach cycles cannot interleave deliveries out of
// order. It closes h.ch on exit.
func (b *Broker) durableDeliver(d *durableSub, h *Subscriber) {
	defer b.wg.Done()
	done := d.deliverDone
	one := [1]*Subscriber{h} // the run an outbox delivery is put as

	// finish ends this consumer's stream. On detach (requeue=true) the
	// messages still sitting unconsumed in the channel buffer — plus the
	// in-flight one, if any — are returned to the backlog head in their
	// original order, so the next attach redelivers them (JMS durable
	// semantics: undelivered messages survive the consumer).
	finish := func(requeue bool, inFlight *jms.Message) {
		var residual []*jms.Message
		if requeue {
			if h.out != nil {
				residual = h.out.takeFor(h)
			}
		drain:
			for h.ch != nil {
				select {
				case m := <-h.ch:
					residual = append(residual, m)
				default:
					break drain
				}
			}
			if inFlight != nil {
				residual = append(residual, inFlight)
			}
		}
		d.mu.Lock()
		if requeue && len(d.preRequeue) > 0 {
			residual = append(append([]*jms.Message{}, d.preRequeue...), residual...)
		}
		d.preRequeue = nil
		if len(residual) > 0 {
			d.backlog = append(residual, d.backlog...)
		}
		d.active = nil
		d.cond.Broadcast()
		d.mu.Unlock()
		if h.ch != nil {
			close(h.ch)
		}
		close(done)
	}
	for {
		d.mu.Lock()
		for len(d.backlog) == 0 && !d.pumpDone && !d.detachReq {
			d.cond.Wait()
		}
		if d.detachReq {
			d.mu.Unlock()
			finish(true, nil)
			return
		}
		if len(d.backlog) == 0 {
			// pumpDone and drained: orderly end of stream (shutdown).
			d.mu.Unlock()
			finish(false, nil)
			return
		}
		m := d.backlog[0]
		copy(d.backlog, d.backlog[1:])
		d.backlog = d.backlog[:len(d.backlog)-1]
		d.mu.Unlock()

		if h.out != nil {
			// Durable deliveries wait for room whatever the slow-consumer
			// policy, like the channel send below. Nothing queued means h
			// left, or the broker is shutting down and put counted a drop.
			if h.out.put(m, one[:], jms.Persistent, SlowConsumerBlock, d.stop) == 0 {
				select {
				case <-h.gone:
					finish(true, m)
					return
				default:
				}
			}
			continue
		}
		select {
		case h.ch <- m:
			h.delivered.Add(1)
			b.countAdd(&b.dispatched, 1)
		case <-h.gone:
			finish(true, m)
			return
		case <-d.stop:
			// Broker shutdown: deliver best-effort without blocking so
			// Close can finish even with a stalled consumer.
			select {
			case h.ch <- m:
				h.delivered.Add(1)
				b.countAdd(&b.dispatched, 1)
			default:
				b.countAdd(&b.dropped, 1)
			}
		}
	}
}

// detachDurable disconnects the consumer (called from Unsubscribe). It
// waits for the delivery goroutine to exit, so a subsequent attach starts
// from a quiesced backlog; new traffic keeps accumulating until then.
func (b *Broker) detachDurable(s *Subscriber) {
	d := s.durable
	d.mu.Lock()
	var done chan struct{}
	if d.active == s {
		d.detachReq = true
		done = d.deliverDone
		d.cond.Broadcast()
	}
	d.mu.Unlock()
	if done != nil {
		<-done
	}

	b.mu.Lock()
	delete(b.durableHandles, s)
	b.mu.Unlock()
}

// DurableBacklog reports the backlog length and the number of
// overflow-discarded messages of a durable subscription.
func (b *Broker) DurableBacklog(topicName, name string) (backlog int, overflow uint64, err error) {
	b.mu.Lock()
	d := b.durables[topicName+"\x00"+name]
	b.mu.Unlock()
	if d == nil {
		return 0, 0, fmt.Errorf("%w: %q on %q", ErrNoSuchDurable, name, topicName)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.backlog), d.overflow, nil
}

// DurableAttached reports whether a consumer is currently attached to the
// durable subscription.
func (b *Broker) DurableAttached(topicName, name string) (bool, error) {
	b.mu.Lock()
	d := b.durables[topicName+"\x00"+name]
	b.mu.Unlock()
	if d == nil {
		return false, fmt.Errorf("%w: %q on %q", ErrNoSuchDurable, name, topicName)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active != nil, nil
}

// UnsubscribeDurable deletes a durable subscription: the relay filter is
// removed and the backlog discarded. It fails while a consumer is
// attached.
func (b *Broker) UnsubscribeDurable(topicName, name string) error {
	key := topicName + "\x00" + name
	b.mu.Lock()
	d := b.durables[key]
	b.mu.Unlock()
	if d == nil {
		return fmt.Errorf("%w: %q on %q", ErrNoSuchDurable, name, topicName)
	}
	d.mu.Lock()
	if d.active != nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDurableActive, name)
	}
	d.deleted = true
	d.backlog = nil
	d.cond.Broadcast()
	d.mu.Unlock()

	b.mu.Lock()
	delete(b.durables, key)
	b.mu.Unlock()

	d.signalStop()
	return d.relay.Unsubscribe()
}
