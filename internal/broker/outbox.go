package broker

import (
	"sync"

	"repro/internal/filter"
	"repro/internal/jms"
)

// Outbox is the delivery queue one consumer connection shares among all of
// its subscriptions, in place of a channel per subscription. The transmit
// stage appends a message's deliveries to a run of subscriptions of one
// outbox in one step, so the consumer — the wire server's one delivery pump
// per connection — takes them back to back and sends the message once for
// all of them.
//
// Each subscription holds up to Options.SubscriberBuffer queued deliveries,
// as its channel would, and the slow-consumer policy acts on the
// subscriptions that are full and on no other: block waits until each has
// room, drop-oldest evicts that subscription's own oldest delivery, and
// disconnect ends it.
type Outbox struct {
	b *Broker

	mu   sync.Mutex
	q    []Delivery // queued deliveries, oldest first, from q[head]
	head int
	// waiting counts transmits parked on space. space is closed and
	// replaced only when there are any, so Take allocates nothing in the
	// steady state.
	waiting int
	space   chan struct{}
	// ready wakes the consumer after an append; one pending wake-up covers
	// any number of appends.
	ready chan struct{}
}

// Delivery is one queued delivery of Msg to the subscription Sub. A nil Msg
// is the broker's notice that it ended Sub under the disconnect
// slow-consumer policy; it follows every delivery queued to Sub before it.
type Delivery struct {
	Msg *jms.Message
	Sub *Subscriber
}

// NewOutbox returns an empty outbox for one consumer connection.
func (b *Broker) NewOutbox() *Outbox {
	return &Outbox{b: b, space: make(chan struct{}), ready: make(chan struct{}, 1)}
}

// Subscribe is Broker.Subscribe for a subscription whose deliveries go to
// o. tag is what the handle's Tag returns, so the consumer can map a
// Delivery back to its own state. The handle has no channel of its own.
func (o *Outbox) Subscribe(topicName string, f filter.Filter, tag any) (*Subscriber, error) {
	return o.b.subscribe(topicName, f, 0, o, tag)
}

// SubscribeDurable is Broker.SubscribeDurable for a consumer whose
// deliveries go to o. When the consumer detaches, the deliveries still
// queued in o for it return to the head of the durable backlog.
func (o *Outbox) SubscribeDurable(topicName, name string, f filter.Filter, opts DurableOptions, tag any) (*Subscriber, error) {
	return o.b.subscribeDurable(topicName, name, f, opts, o, tag)
}

// Ready returns a channel that receives after deliveries were appended.
// Take may still find the outbox empty if an earlier Take got them.
func (o *Outbox) Ready() <-chan struct{} { return o.ready }

// Take moves queued deliveries, oldest first, into dst and returns it. It
// takes up to max of them, and more only to finish the run of the last
// message it took, so one message's deliveries are never split between two
// calls. It never blocks; wait on Ready when it returns nothing.
func (o *Outbox) Take(dst []Delivery, max int) []Delivery {
	o.mu.Lock()
	defer o.mu.Unlock()
	queued := o.q[o.head:]
	n := min(len(queued), max)
	for n > 0 && n < len(queued) && queued[n].Msg != nil && queued[n].Msg == queued[n-1].Msg {
		n++
	}
	if n == 0 {
		return dst
	}
	for _, d := range queued[:n] {
		d.Sub.queued--
	}
	dst = append(dst, queued[:n]...)
	clear(queued[:n])
	o.head += n
	switch {
	case o.head == len(o.q):
		o.q, o.head = o.q[:0], 0
	case o.head > len(o.q)/2:
		// Keep the backing array from creeping behind a standing backlog.
		k := copy(o.q, o.q[o.head:])
		clear(o.q[k:])
		o.q, o.head = o.q[:k], 0
	}
	o.wakeSpaceLocked()
	return dst
}

// leave ends h's deliveries: nothing more is queued for it once leave
// returns, and a transmit parked on h's full queue re-examines its run.
func (o *Outbox) leave(h *Subscriber) {
	o.mu.Lock()
	h.dead = true
	o.wakeSpaceLocked()
	o.mu.Unlock()
}

// takeFor removes the deliveries still queued for h and returns their
// messages in queue order.
func (o *Outbox) takeFor(h *Subscriber) []*jms.Message {
	o.mu.Lock()
	defer o.mu.Unlock()
	var msgs []*jms.Message
	kept := o.q[:o.head]
	for _, d := range o.q[o.head:] {
		switch {
		case d.Sub != h:
			kept = append(kept, d)
		case d.Msg != nil:
			msgs = append(msgs, d.Msg)
		}
	}
	clear(o.q[len(kept):])
	o.q = kept
	h.queued = 0
	o.wakeSpaceLocked()
	return msgs
}

// evictLocked drops h's oldest queued delivery.
func (o *Outbox) evictLocked(h *Subscriber) {
	for i := o.head; i < len(o.q); i++ {
		if o.q[i].Sub == h {
			copy(o.q[i:], o.q[i+1:])
			o.q[len(o.q)-1] = Delivery{}
			o.q = o.q[:len(o.q)-1]
			h.queued--
			return
		}
	}
}

// fullLocked reports whether a live subscription of subs has no room left.
func (o *Outbox) fullLocked(subs []*Subscriber) bool {
	for _, h := range subs {
		if !h.dead && h.queued >= o.b.opts.SubscriberBuffer {
			return true
		}
	}
	return false
}

func (o *Outbox) wakeSpaceLocked() {
	if o.waiting > 0 {
		close(o.space)
		o.space = make(chan struct{})
		o.waiting = 0
	}
}

func (o *Outbox) wakeConsumer() {
	select {
	case o.ready <- struct{}{}:
	default:
	}
}

// put queues m's deliveries to subs, every one of them attached to o, as one
// run: the transmit stage of outbox subscriptions. Subscriptions already
// ended are skipped, and the others get m unless they are full. To a full
// one a non-persistent delivery is dropped; a persistent one meets policy:
// block parks the whole run until every subscription in it has room,
// drop-oldest first evicts that subscription's oldest delivery, and
// disconnect ends it, its notice following the run. A put parked on a full
// subscription gives up when stop closes (broker shutdown) and drops what
// still does not fit. It returns the number of deliveries queued.
func (o *Outbox) put(m *jms.Message, subs []*Subscriber, mode jms.DeliveryMode, policy SlowConsumerPolicy, stop <-chan struct{}) int {
	b := o.b
	block := mode == jms.Persistent && policy == SlowConsumerBlock
	o.mu.Lock()
	for block && o.fullLocked(subs) {
		o.waiting++
		space := o.space
		o.mu.Unlock()
		select {
		case <-space:
		case <-stop:
			block = false // broker closing: one more try, then drop
		}
		o.mu.Lock()
	}
	var queued, dropped, evicted int
	var kicked []*Subscriber
	for _, h := range subs {
		if h.dead {
			continue
		}
		if h.queued >= b.opts.SubscriberBuffer {
			switch {
			case mode != jms.Persistent || policy == SlowConsumerBlock:
				dropped++
				continue
			case policy == SlowConsumerDropOldest:
				// The evicted delivery stays counted in Dispatched.
				o.evictLocked(h)
				evicted++
			default:
				h.dead = true
				kicked = append(kicked, h)
				continue
			}
		}
		o.q = append(o.q, Delivery{Msg: m, Sub: h})
		h.queued++
		h.delivered.Add(1)
		queued++
	}
	for _, h := range kicked {
		o.q = append(o.q, Delivery{Sub: h})
		h.queued++
	}
	o.mu.Unlock()
	if queued+len(kicked) > 0 {
		o.wakeConsumer()
	}
	if queued > 0 {
		b.countAdd(&b.dispatched, uint64(queued))
	}
	if dropped > 0 {
		b.countAdd(&b.dropped, uint64(dropped))
	}
	if evicted > 0 {
		b.countAdd(&b.slowDropped, uint64(evicted))
	}
	for _, h := range kicked {
		b.kickSlow(h)
	}
	return queued
}
