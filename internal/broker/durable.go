package broker

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// Structure: a hidden relay subscription feeds a per-name backlog through
// one pump goroutine per durable subscription. The attached consumer's
// outbox is refilled from the backlog head as it makes room (see Outbox),
// and a detach hands what is still queued there back to that head, so
// replay and live traffic never interleave out of order.

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
	// ctx ends the pump once it has drained the relay; stop cancels it.
	ctx  context.Context
	stop context.CancelFunc

	// mu guards the fields below. Lock order: an outbox's mu before it,
	// never the other way round (see Outbox).
	mu       sync.Mutex
	backlog  []*jms.Message
	limit    int
	active   *Subscriber
	overflow uint64
	deleted  bool
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
// or, with o nil, to an outbox of its own.
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
	}
	d.ctx, d.stop = context.WithCancel(context.Background())

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
	b.durables[key] = d
	// Add under the lock: Close sets closed before waiting, so the Add
	// cannot race a Wait that already started.
	b.wg.Add(1)
	b.mu.Unlock()

	go b.durablePump(d)
	return b.attachDurable(d, o, tag)
}

// durablePump appends relay deliveries to the backlog and refills the
// attached consumer's outbox from it. Once stopped it drains the relay
// first, so nothing the dispatcher handed over is lost.
func (b *Broker) durablePump(d *durableSub) {
	defer b.wg.Done()
	for {
		m, err := d.relay.Receive(d.ctx)
		if err != nil {
			return
		}
		d.mu.Lock()
		if len(d.backlog) >= d.limit {
			copy(d.backlog, d.backlog[1:])
			d.backlog = d.backlog[:len(d.backlog)-1]
			d.overflow++
			b.countAdd(&b.dropped, 1)
		}
		d.backlog = append(d.backlog, m)
		h := d.active
		d.mu.Unlock()
		if h != nil {
			h.out.refill(h)
		}
	}
}

// attachDurable connects a consumer handle, delivering to o when set, and
// fills its queue from the backlog.
func (b *Broker) attachDurable(d *durableSub, o *Outbox, tag any) (*Subscriber, error) {
	h := b.newHandle(o, 0, tag)
	h.durable = d
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	d.mu.Lock()
	if d.deleted {
		d.mu.Unlock()
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q on %q", ErrNoSuchDurable, d.name, d.topic)
	}
	if d.active != nil {
		d.mu.Unlock()
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDurableActive, d.name)
	}
	d.active = h
	d.mu.Unlock()
	b.durableHandles[h] = struct{}{}
	b.mu.Unlock()
	h.out.refill(h)
	return h, nil
}

// detachDurable disconnects the consumer (called from Unsubscribe). The
// unacked deliveries, then those still queued for it, return to the head
// of the backlog in their original order, so the next attach redelivers
// them (JMS durable semantics: undelivered messages survive the consumer).
func (b *Broker) detachDurable(s *Subscriber, unacked []*jms.Message) {
	d, o := s.durable, s.out
	o.mu.Lock()
	residual := o.takeForLocked(s)
	d.mu.Lock()
	d.backlog = slices.Concat(unacked, residual, d.backlog)
	d.active = nil
	d.mu.Unlock()
	o.mu.Unlock()

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
	d.mu.Unlock()

	b.mu.Lock()
	delete(b.durables, key)
	b.mu.Unlock()

	d.stop()
	return d.relay.Unsubscribe()
}
