package broker

import (
	"slices"
	"sync"

	"repro/internal/filter"
	"repro/internal/jms"
)

// Outbox is the subscriber queue: the transmit stage of Eq. 1 puts every
// delivery into one, and it is where the slow-consumer policy acts. An
// in-process subscription (Broker.Subscribe) has an outbox of its own, read
// by Receive. A consumer connection has one that all of its subscriptions
// share: the transmit stage appends a message's deliveries to a run of
// them in one step, so the consumer — the wire server's connection writer
// — takes them back to back and sends the message once for all of them.
//
// Each subscription holds up to its buffer of queued deliveries, and the
// slow-consumer policy acts on the subscriptions that are full and on no
// other: block waits until each has room, drop-oldest evicts that
// subscription's own oldest delivery, and disconnect ends it.
//
// A durable consumer's deliveries come from its backlog instead: it is
// refilled from the backlog head whenever a Take makes room. Lock order:
// o.mu before the durable subscription's mu, and nothing takes o.mu while
// it holds a durable subscription's mu.
type Outbox struct {
	b *Broker
	// solo is the one subscription of an outbox made by Broker.Subscribe or
	// SubscribeDurable, the one Receive may read; nil on a shared outbox.
	solo *Subscriber

	mu   sync.Mutex
	q    []Delivery // queued deliveries, oldest first, from q[head]
	head int
	// waiters are the transmits parked on space, each on a 1-slot channel
	// of its own that the next Take (or leave) signals. idle keeps the
	// channels of transmits no longer parked, so a park allocates nothing
	// once the outbox has seen its most transmits parked at once.
	waiters, idle []chan struct{}
	// ready wakes the consumer after an append; one pending wake-up covers
	// any number of appends.
	ready chan struct{}
	// closed is set by Close: nothing is queued or taken from then on.
	closed bool
	// ch is solo's Chan adapter, made by its first call.
	ch chan *jms.Message
}

// Delivery is one queued delivery of Msg to the subscription Sub. A nil Msg
// is the broker's notice that it ended Sub under the disconnect
// slow-consumer policy; it follows every delivery queued to Sub before it.
// The consumer of a shared outbox releases the delivery's Hold once it has
// read Msg for the last time (see BatchCarrier).
type Delivery struct {
	Msg *jms.Message
	Sub *Subscriber
	// hold is the carrier Msg's storage came from, holding one hold for
	// this delivery; nil when there is nothing to release.
	hold *BatchCarrier
}

// NewOutbox returns an empty outbox for one consumer connection.
func (b *Broker) NewOutbox() *Outbox {
	return &Outbox{b: b, ready: make(chan struct{}, 1)}
}

// Subscribe is Broker.Subscribe for a subscription whose deliveries go to
// o. tag is what the handle's Tag returns, so the consumer can map a
// Delivery back to its own state. The handle is read through o.Take, not
// Receive.
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
// Take may still find the outbox empty if an earlier Take got them. Its one
// slot may carry the consumer's own wake-ups too, sent without blocking.
func (o *Outbox) Ready() chan struct{} { return o.ready }

// Take moves queued deliveries, oldest first, into dst and returns it. It
// takes up to max of them, and more only to finish the run of the last
// message it took (one delivery per subscription), so one message's
// deliveries are never split between two calls. What it takes from a
// durable consumer is made up from that consumer's backlog. It never
// blocks; wait on Ready when it returns nothing.
func (o *Outbox) Take(dst []Delivery, max int) []Delivery {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return dst
	}
	queued := o.q[o.head:]
	n := min(len(queued), max)
	for n > 0 && n < len(queued) && queued[n].Msg != nil && queued[n].Msg == queued[n-1].Msg && queued[n].Sub != queued[n-1].Sub {
		n++
	}
	if n == 0 {
		return dst
	}
	start := len(dst)
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
	for _, d := range dst[start:] {
		d.Sub.queued--
		if d.Sub.durable != nil {
			o.refillLocked(d.Sub)
		}
	}
	o.wakeSpaceLocked()
	return dst
}

// Close ends o's consumer: from then on Take returns nothing, the transmit
// stage queues nothing in o, skipping its subscriptions as it does ended
// ones, and a transmit parked on a full subscription of o wakes. What is
// queued stays for the subscriptions' Unsubscribe, which returns a durable
// consumer's to its backlog.
func (o *Outbox) Close() {
	o.mu.Lock()
	o.closed = true
	o.wakeSpaceLocked()
	o.mu.Unlock()
}

// leave ends h's deliveries: nothing more is queued for it once leave
// returns, and a transmit parked on h's full queue re-examines its run.
func (o *Outbox) leave(h *Subscriber) {
	o.mu.Lock()
	h.dead = true
	o.wakeSpaceLocked()
	o.mu.Unlock()
}

// takeForLocked ends h's deliveries, removes the ones still queued for it
// and returns their messages in queue order. o.mu is held. The messages are
// kept (a durable backlog takes them back); a durable consumer's deliveries
// come from its backlog and hold no storage, so there is none to release.
func (o *Outbox) takeForLocked(h *Subscriber) []*jms.Message {
	h.dead = true
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
	return msgs
}

// refill moves durable consumer h's backlog head into o as far as h has
// room, and wakes the consumer if it moved any.
func (o *Outbox) refill(h *Subscriber) {
	o.mu.Lock()
	n := o.refillLocked(h)
	o.mu.Unlock()
	if n > 0 {
		o.wakeConsumer()
	}
}

// refillLocked is refill with o.mu held, minus the wake-up; it takes the
// durable subscription's mu inside o.mu. It returns the number moved, each
// counted in Dispatched.
func (o *Outbox) refillLocked(h *Subscriber) int {
	d := h.durable
	d.mu.Lock()
	n := 0
	if !h.dead && d.active == h {
		n = min(h.buffer-h.queued, len(d.backlog))
	}
	if n <= 0 {
		d.mu.Unlock()
		return 0
	}
	for _, m := range d.backlog[:n] {
		o.q = append(o.q, Delivery{Msg: m, Sub: h})
	}
	clear(d.backlog[:n])
	if n == len(d.backlog) {
		d.backlog = d.backlog[:0] // keep the array for the next appends
	} else {
		d.backlog = d.backlog[n:]
	}
	d.mu.Unlock()
	h.queued += n
	h.delivered.Add(uint64(n))
	o.b.countAdd(&o.b.dispatched, uint64(n))
	return n
}

// evictLocked drops h's oldest queued delivery, releasing its hold: no
// consumer reads it any more.
func (o *Outbox) evictLocked(h *Subscriber) {
	for i := o.head; i < len(o.q); i++ {
		if o.q[i].Sub == h {
			o.q[i].Hold().Release()
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
		if !h.dead && h.queued >= h.buffer {
			return true
		}
	}
	return false
}

func (o *Outbox) wakeSpaceLocked() {
	for _, space := range o.waiters {
		select {
		case space <- struct{}{}:
		default:
		}
	}
	clear(o.waiters)
	o.waiters = o.waiters[:0]
}

func (o *Outbox) wakeConsumer() {
	select {
	case o.ready <- struct{}{}:
	default:
	}
}

// put queues m's deliveries to subs, every one of them attached to o, as one
// run: the transmit stage. Subscriptions already ended, and all of a closed
// o's, are skipped, and the others get m unless they are full. To a full one
// a non-persistent delivery is dropped; a persistent one meets policy: block
// parks the whole run until every subscription in it has room, drop-oldest
// first evicts that subscription's oldest delivery, and disconnect ends it,
// its notice following the run. A put parked on a full subscription gives
// up when stop closes (broker shutdown) and drops what still does not fit.
// Every count is taken before the consumer can see the run, so no delivery
// is received before it is counted in Dispatched, and no hold is released
// before it is taken: with hold non-nil, each queued delivery holds that
// carrier.
func (o *Outbox) put(m *jms.Message, hold *BatchCarrier, subs []*Subscriber, mode jms.DeliveryMode, policy SlowConsumerPolicy, stop <-chan struct{}) {
	b := o.b
	block := mode == jms.Persistent && policy == SlowConsumerBlock
	o.mu.Lock()
	for block && !o.closed && o.fullLocked(subs) {
		var space chan struct{}
		if n := len(o.idle); n > 0 {
			space, o.idle = o.idle[n-1], o.idle[:n-1]
		} else {
			space = make(chan struct{}, 1)
		}
		o.waiters = append(o.waiters, space)
		o.mu.Unlock()
		select {
		case <-space:
		case <-stop:
			block = false // broker closing: one more try, then drop
		}
		o.mu.Lock()
		if !block {
			// Woken by stop: unlist space so nothing signals it again, and
			// drain a signal that raced stop, so an idle channel is empty.
			if i := slices.Index(o.waiters, space); i >= 0 {
				o.waiters = slices.Delete(o.waiters, i, i+1)
			}
			select {
			case <-space:
			default:
			}
		}
		o.idle = append(o.idle, space)
	}
	var queued, dropped, evicted int
	var kicked []*Subscriber
	for _, h := range subs {
		if h.dead || o.closed {
			continue
		}
		if h.queued >= h.buffer {
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
				h.slow.Store(true)
				kicked = append(kicked, h)
				continue
			}
		}
		o.q = append(o.q, Delivery{Msg: m, Sub: h, hold: hold})
		h.queued++
		h.delivered.Add(1)
		queued++
	}
	if hold != nil && queued > 0 {
		hold.holds.Add(int32(queued))
	}
	for _, h := range kicked {
		o.q = append(o.q, Delivery{Sub: h})
		h.queued++
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
	o.mu.Unlock()
	if queued+len(kicked) > 0 {
		o.wakeConsumer()
	}
	for _, h := range kicked {
		b.kickSlow(h)
	}
}
