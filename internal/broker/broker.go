// Package broker implements the JMS-style publish/subscribe server whose
// performance the paper studies. Dispatch is a staged pipeline with exactly
// the structure the paper's processing-time model assumes (Eq. 1):
//
//   - receive a message once (cost t_rcv),
//   - match it against the topic's installed filters (cost n_fltr*t_fltr),
//   - replicate and transmit one copy per matching subscriber (cost R*t_tx).
//
// Each topic runs one or more dispatch workers that carry a message through
// all three stages to completion; the worker loop is shared by every engine
// (pipeline.go). An Engine is a configuration of the stage implementations
// and the worker count (stage.go): the faithful linear-scan/deep-copy pair
// on one worker, as the paper measures, or the fast indexed/copy-on-write
// pair on Options.Shards workers. With Options.WaitTiming each committed
// message lands on its topic's service-time tape (tracing.go); a
// least-squares fit of Eq. 1 over taped service times recovers the
// constants.
//
// The broker operates in the paper's persistent, non-durable mode: messages
// are delivered reliably and in order to the subscribers that are currently
// connected, and a bounded in-flight window applies push-back to publishers
// instead of dropping messages ("the major part of the messages are queued
// at the publisher site due to a kind of push-back mechanism").
package broker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/topic"
	"repro/internal/trace"
)

// Errors returned by the broker.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("broker: closed")
	// ErrQueueFull is returned by TryPublish when the worker's in-flight
	// window is exhausted (the push-back condition).
	ErrQueueFull = errors.New("broker: topic queue full")
)

// Options configure a Broker.
type Options struct {
	// InFlight sizes each dispatch worker's intake queue; a publisher
	// blocks (push-back) once its worker's queue is full. Default 64. A
	// worker holds up to InFlight + 1 received-but-undispatched units (its
	// queue and the one it is serving), plus SubscriberBuffer for each
	// subscriber whose full queue blocks its transmit stage.
	InFlight int
	// SubscriberBuffer is the number of deliveries an Outbox holds per
	// subscription unless SubscribeBuffered says otherwise. Default 64.
	SubscriberBuffer int
	// Engine selects the dispatch implementation. The zero value is
	// EngineFaithful, keeping the paper reproduction the default.
	Engine Engine
	// Shards is the number of dispatch workers per topic on EngineFast;
	// each publisher key is pinned to one (see Publisher). Default:
	// GOMAXPROCS, capped at 8. EngineFaithful always runs one.
	Shards int
	// SlowConsumer selects what a persistent-mode transmit does when a
	// subscriber's delivery queue is full: block (default, the paper's
	// push-back), drop-oldest, or disconnect. See SlowConsumerPolicy.
	SlowConsumer SlowConsumerPolicy
	// WaitTiming stamps each message at broker enqueue and records its
	// waiting time W (enqueue → dispatch start) and sojourn time (enqueue
	// → last transmit) into per-topic histograms, exposed by Telemetry,
	// and each committed message, with its service time B (dispatch start
	// → last transmit), on its topic's tape, read by TakeTape. The tape is
	// the measured side of the live model-drift monitor and of the
	// conformance checks: a ring of TapeCapacity entries (~1.6 MiB per
	// topic) allocated by the first TakeTape on the topic; until then
	// recording costs one nil check, after it one lock per message (see
	// tracing.go). Off by default, because it adds clock reads to the
	// dispatch hot path.
	WaitTiming bool
	// Tracer, when non-nil, is the per-message flight recorder: sampled
	// messages (by TraceID hash) get queue/match/replicate/transmit spans
	// recorded through the dispatch pipeline, and — when WaitTiming is
	// also on — unsampled slow messages are offered to its tail keeper as
	// skeleton traces. Messages are stamped at enqueue whenever it is
	// set, so the enqueue-wait span exists even without WaitTiming.
	Tracer *trace.Recorder
}

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = 64
	}
	if o.SubscriberBuffer <= 0 {
		o.SubscriberBuffer = 64
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards > 8 {
			o.Shards = 8
		}
	}
	return o
}

// Stats are the broker's monotonic counters, in the units the paper
// measures: messages received from publishers and messages dispatched
// (transmitted, counting each replica) to subscribers.
type Stats struct {
	// Received counts messages accepted from publishers.
	Received uint64
	// Dispatched counts message copies forwarded to subscribers; the sum
	// over messages of their replication grade R.
	Dispatched uint64
	// FilterEvals counts individual filter evaluations. The faithful engine
	// counts n_fltr per message. The fast engine counts what
	// topic.FilterIndex.Match reports: one for the exact-literal probe, one
	// per range or equality-pivot bucket probed plus one per further rule
	// looked at inside it, and one per remaining distinct rule — never more
	// than n_fltr.
	FilterEvals uint64
	// Dropped counts non-persistent deliveries discarded on full queues.
	Dropped uint64
	// Expired counts messages discarded at dispatch time because their
	// JMS expiration had passed.
	Expired uint64
	// SlowDropped counts oldest-first evictions performed by the
	// drop-oldest slow-consumer policy (persistent deliveries only; the
	// evicted copies remain counted in Dispatched).
	SlowDropped uint64
	// SlowDisconnects counts subscribers force-unsubscribed by the
	// disconnect slow-consumer policy.
	SlowDisconnects uint64
}

// Broker is a single JMS server instance.
type Broker struct {
	opts     Options
	registry *topic.Registry

	mu             sync.Mutex
	dispatchers    map[string]*dispatcher
	handles        map[topic.SubscriptionID]*Subscriber
	durables       map[string]*durableSub
	durableHandles map[*Subscriber]struct{}
	closed         bool

	wg sync.WaitGroup

	// statsMu makes Stats a consistent cut: counter increments take the
	// read side (shared, so incrementers never exclude each other), Stats
	// takes the write side and reads all counters with no add in flight.
	statsMu         sync.RWMutex
	received        atomic.Uint64
	dispatched      atomic.Uint64
	filterEvals     atomic.Uint64
	dropped         atomic.Uint64
	expired         atomic.Uint64
	slowDropped     atomic.Uint64
	slowDisconnects atomic.Uint64

	// now is the dispatch clock; injectable for expiration tests.
	now func() time.Time
}

// New creates a broker with the given options.
func New(opts Options) *Broker {
	return &Broker{
		opts:           opts.withDefaults(),
		registry:       topic.NewRegistry(),
		dispatchers:    make(map[string]*dispatcher),
		handles:        make(map[topic.SubscriptionID]*Subscriber),
		durables:       make(map[string]*durableSub),
		durableHandles: make(map[*Subscriber]struct{}),
		now:            time.Now,
	}
}

// countAdd increments one broker counter under the read side of statsMu,
// so Stats can exclude in-flight increments for a consistent snapshot.
func (b *Broker) countAdd(c *atomic.Uint64, delta uint64) {
	b.statsMu.RLock()
	c.Add(delta)
	b.statsMu.RUnlock()
}

// ConfigureTopic creates a topic and starts its dispatch pipeline. Like on
// a real JMS server, topics are configured before the system is used.
func (b *Broker) ConfigureTopic(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	t, err := b.registry.Configure(name)
	if err != nil {
		return err
	}
	d := &dispatcher{
		b:      b,
		topic:  t,
		st:     b.stages(b.opts.Engine),
		tracer: b.opts.Tracer,
		stop:   make(chan struct{}),
	}
	if b.opts.WaitTiming {
		d.tt = &topicTimers{}
	}
	b.dispatchers[name] = d
	d.start()
	return nil
}

// Topics returns the names of all configured topics.
func (b *Broker) Topics() []string { return b.registry.Topics() }

// Publisher publishes for one publisher key. Every publish of a key goes
// to the same dispatch worker of its topic — worker key mod k, where k is
// Options.Shards on EngineFast and 1 on EngineFaithful — so one key's
// messages are delivered in the order they were published, and publishers
// on different keys can be dispatched in parallel. The wire server keys a
// publish by its publisher identity or connection; the Broker's own
// Publish methods use key 0.
type Publisher struct {
	b   *Broker
	key uint64
}

// Publisher returns the publish handle of key.
func (b *Broker) Publisher(key uint64) Publisher { return Publisher{b: b, key: key} }

// Publish is Publisher(0).Publish.
func (b *Broker) Publish(ctx context.Context, m *jms.Message) error {
	return b.Publisher(0).Publish(ctx, m)
}

// PublishBatch is Publisher(0).PublishBatch.
func (b *Broker) PublishBatch(ctx context.Context, msgs []*jms.Message) error {
	return b.Publisher(0).PublishBatch(ctx, msgs)
}

// TryPublish is Publisher(0).TryPublish.
func (b *Broker) TryPublish(m *jms.Message) error { return b.Publisher(0).TryPublish(m) }

// Publish delivers a message to the broker, blocking while its worker's
// in-flight window is full (publisher push-back). The message must not be
// modified by the caller afterwards.
func (p Publisher) Publish(ctx context.Context, m *jms.Message) error {
	d, err := p.b.dispatcherFor(m)
	if err != nil {
		return err
	}
	return p.send(ctx, d, pubUnit{m: m}, 1, true)
}

// TryPublish is Publish without blocking: it returns ErrQueueFull when the
// push-back window is exhausted.
func (p Publisher) TryPublish(m *jms.Message) error {
	d, err := p.b.dispatcherFor(m)
	if err != nil {
		return err
	}
	return p.send(context.Background(), d, pubUnit{m: m}, 1, false)
}

// PublishBatch delivers several messages as one dispatch unit, blocking
// like Publish while the worker's in-flight window is full. The whole batch
// occupies a single in-flight slot regardless of its size — amortizing the
// push-back window is the point of batching — and its messages fan out to
// subscribers individually, in slice order. A batch spanning topics is
// split into consecutive same-topic runs, each enqueued as its own unit in
// slice order; on error a suffix of those runs was not accepted (the
// already-enqueued prefix is dispatched normally). The broker retains the
// slice: neither it nor the messages may be modified by the caller
// afterwards — hand over a fresh slice per call.
func (p Publisher) PublishBatch(ctx context.Context, msgs []*jms.Message) error {
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return p.Publish(ctx, msgs[0])
	}
	for _, m := range msgs {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	// Resolve every run's dispatcher under one lock, so the batch is
	// admitted or rejected against a single broker state.
	type run struct {
		d    *dispatcher
		msgs []*jms.Message
	}
	b := p.b
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	var runs []run
	for start := 0; start < len(msgs); {
		name := msgs[start].Header.Topic
		end := start + 1
		for end < len(msgs) && msgs[end].Header.Topic == name {
			end++
		}
		d, ok := b.dispatchers[name]
		if !ok {
			b.mu.Unlock()
			return fmt.Errorf("%w: %q", topic.ErrNoSuchTopic, name)
		}
		runs = append(runs, run{d: d, msgs: msgs[start:end]})
		start = end
	}
	b.mu.Unlock()
	for _, r := range runs {
		if err := p.send(ctx, r.d, pubUnit{batch: r.msgs}, len(r.msgs), true); err != nil {
			return err
		}
	}
	return nil
}

// send stamps u's n messages and enqueues u on the intake queue of the
// worker p's key selects. While the queue is full it blocks, or without
// wait returns ErrQueueFull.
func (p Publisher) send(ctx context.Context, d *dispatcher, u pubUnit, n int, wait bool) error {
	b := p.b
	if d.tt != nil || b.opts.Tracer != nil {
		now := b.now()
		if u.m != nil {
			u.m.EnqueuedAt = now
		}
		for _, m := range u.batch {
			m.EnqueuedAt = now
		}
	}
	in := d.intake(p.key)
	select {
	case in <- u:
	case <-d.stop:
		return ErrClosed
	default:
		if !wait {
			return ErrQueueFull
		}
		select {
		case in <- u:
		case <-d.stop:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	b.countAdd(&b.received, uint64(n))
	if d.tt != nil {
		d.tt.received.Add(uint64(n))
	}
	return nil
}

func (b *Broker) dispatcherFor(m *jms.Message) (*dispatcher, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	d, ok := b.dispatchers[m.Header.Topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", topic.ErrNoSuchTopic, m.Header.Topic)
	}
	return d, nil
}

// Subscriber is a subscription handle. Its deliveries wait in an Outbox:
// its own for a subscription made by Subscribe, read with Receive, or a
// consumer connection's shared one. It is either a regular (non-durable)
// subscription backed by a registry entry, or the attached consumer of a
// durable subscription.
type Subscriber struct {
	sub    *topic.Subscription
	broker *Broker
	gone   chan struct{}
	once   sync.Once
	// removeOnce guards registry removal, shared between Unsubscribe and
	// the broker-initiated slow-consumer kick so the loser is a no-op
	// instead of an error.
	removeOnce sync.Once
	durable    *durableSub // nil for regular subscriptions

	// out is the outbox the subscription's deliveries wait in, tag the
	// consumer's reference Tag returns. buffer bounds the deliveries out
	// holds for it and queued counts them; dead, set by Unsubscribe or a
	// slow-consumer kick, stops further ones. The last two are guarded by
	// out.mu.
	out    *Outbox
	tag    any
	buffer int
	queued int
	dead   bool
	// slow marks a handle force-removed by the disconnect slow-consumer
	// policy; Receive then reports ErrSlowConsumer instead of ErrClosed.
	slow atomic.Bool

	delivered atomic.Uint64
}

// Subscribe installs a filter on a topic and returns the subscription
// handle. A nil filter receives every message of the topic.
func (b *Broker) Subscribe(topicName string, f filter.Filter) (*Subscriber, error) {
	return b.SubscribeBuffered(topicName, f, 0)
}

// SubscribeBuffered is Subscribe with an explicit delivery-queue capacity
// for this subscription, overriding Options.SubscriberBuffer when buffer
// is positive. The queue length is what the slow-consumer policy acts on,
// and it dominates per-subscription memory — large populations (the 10^5+
// regime the stress suite drives) want small buffers, while designated
// fast consumers may need deeper ones.
func (b *Broker) SubscribeBuffered(topicName string, f filter.Filter, buffer int) (*Subscriber, error) {
	return b.subscribe(topicName, f, buffer, nil, nil)
}

// newHandle returns a handle delivering to o, or, with o nil, to an outbox
// of its own, holding up to buffer deliveries (SubscriberBuffer when not
// positive).
func (b *Broker) newHandle(o *Outbox, buffer int, tag any) *Subscriber {
	if buffer <= 0 {
		buffer = b.opts.SubscriberBuffer
	}
	h := &Subscriber{broker: b, gone: make(chan struct{}), out: o, tag: tag, buffer: buffer}
	if o == nil {
		h.out = b.NewOutbox()
		h.out.solo = h
	}
	return h
}

// subscribe installs a subscription delivering to o, or, with o nil, to an
// outbox of its own holding up to buffer deliveries.
func (b *Broker) subscribe(topicName string, f filter.Filter, buffer int, o *Outbox, tag any) (*Subscriber, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	h := b.newHandle(o, buffer, tag)
	sub, err := b.registry.Subscribe(topicName, f, h)
	if err != nil {
		return nil, err
	}
	h.sub = sub
	b.handles[sub.ID] = h
	return h, nil
}

// Chan returns a channel carrying what Receive would return, for a caller
// that selects over several sources. The first call starts the one
// goroutine feeding it from Receive; the channel holds up to the
// subscription's buffer on top of its queue. Once the subscription has
// ended, the goroutine moves what still fits into the channel, closes it
// and exits, so an abandoned channel holds no goroutine after Unsubscribe
// or Close.
func (s *Subscriber) Chan() <-chan *jms.Message {
	o := s.out
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ch == nil {
		o.ch = make(chan *jms.Message, s.buffer)
		go s.feedChan(o.ch)
	}
	return o.ch
}

func (s *Subscriber) feedChan(ch chan<- *jms.Message) {
	defer close(ch)
	for {
		m, err := s.Receive(context.Background())
		if err != nil {
			return
		}
		select {
		case ch <- m:
			continue
		default:
		}
		select {
		case ch <- m:
		case <-s.gone:
			return // ended with the channel full
		}
	}
}

// Tag returns the tag given to Outbox.Subscribe or SubscribeDurable; nil
// for a subscription with an outbox of its own.
func (s *Subscriber) Tag() any { return s.tag }

// errShared is what Receive returns on a subscription of a shared Outbox,
// whose deliveries are read with Take.
var errShared = errors.New("broker: Receive on a shared outbox subscription")

// Receive returns the next queued delivery, blocking until there is one.
// A queued delivery is returned before ctx is looked at, so a done context
// makes Receive a non-blocking poll. Once the subscription has ended and
// its queue is empty it returns ErrClosed — after Unsubscribe or broker
// shutdown — or ErrSlowConsumer (which wraps ErrClosed) after the broker
// force-removed the subscription under the disconnect slow-consumer policy.
func (s *Subscriber) Receive(ctx context.Context) (*jms.Message, error) {
	o := s.out
	if o.solo != s {
		return nil, errShared
	}
	for {
		var one [1]Delivery
		if got := o.Take(one[:0], 1); len(got) == 1 {
			if got[0].Msg == nil {
				return nil, s.closeErr()
			}
			return got[0].Msg, nil
		}
		select {
		case <-s.gone:
			return nil, s.closeErr()
		default:
		}
		select {
		case <-o.ready:
		case <-s.gone: // take once more: what was queued before it closed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (s *Subscriber) closeErr() error {
	if s.slow.Load() {
		return ErrSlowConsumer
	}
	return ErrClosed
}

// Gone returns a channel closed when the subscription ends for any reason:
// Unsubscribe, broker shutdown, or a slow-consumer disconnect.
func (s *Subscriber) Gone() <-chan struct{} { return s.gone }

// SlowDisconnected reports whether the broker force-removed this
// subscription under the disconnect slow-consumer policy.
func (s *Subscriber) SlowDisconnected() bool { return s.slow.Load() }

// Delivered returns the number of messages forwarded to this subscriber.
func (s *Subscriber) Delivered() uint64 { return s.delivered.Load() }

// ID returns the subscription ID (0 for durable consumer handles, whose
// identity is their durable name).
func (s *Subscriber) ID() topic.SubscriptionID {
	if s.sub == nil {
		return 0
	}
	return s.sub.ID
}

// Filter returns the installed filter.
func (s *Subscriber) Filter() filter.Filter {
	if s.durable != nil {
		return s.durable.fltr
	}
	return s.sub.Filter
}

// Unsubscribe removes the subscription. No new delivery is queued once
// Unsubscribe has returned; Receive returns the ones already queued, then
// ErrClosed. For a durable consumer handle this detaches the consumer —
// the durable subscription itself keeps accumulating messages until
// UnsubscribeDurable.
func (s *Subscriber) Unsubscribe() error {
	return s.unsubscribe(nil)
}

// UnsubscribeRequeue is Unsubscribe for an acked consumer: the unacked
// messages — delivered to the consumer but never acknowledged — are
// returned to the head of the durable backlog (in their original
// delivery order) before any residual still queued for it, so
// the next attach redelivers them. On a non-durable subscription the
// list is discarded (a disconnected non-durable subscriber is
// forgotten, unacked deliveries included).
func (s *Subscriber) UnsubscribeRequeue(unacked []*jms.Message) error {
	return s.unsubscribe(unacked)
}

func (s *Subscriber) unsubscribe(unacked []*jms.Message) error {
	var err error
	s.once.Do(func() {
		close(s.gone)
		if s.durable != nil {
			s.broker.detachDurable(s, unacked)
			return
		}
		// Under the outbox lock, so nothing is queued for s after this, and
		// a transmit parked on its full queue wakes and skips it.
		s.out.leave(s)
		s.removeOnce.Do(func() { err = s.broker.removeSubscriber(s) })
	})
	return err
}

func (b *Broker) removeSubscriber(s *Subscriber) error {
	b.mu.Lock()
	if !b.closed {
		delete(b.handles, s.sub.ID)
	}
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil
	}
	return b.registry.Unsubscribe(s.sub.Topic, s.sub.ID)
}

// Stats returns a consistent snapshot of the broker counters: the write
// side of statsMu excludes every in-flight increment (all of which hold the
// read side), so the returned totals form a single cut — e.g. Dispatched
// can never exceed what Received accounts for at the same instant.
func (b *Broker) Stats() Stats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return Stats{
		Received:        b.received.Load(),
		Dispatched:      b.dispatched.Load(),
		FilterEvals:     b.filterEvals.Load(),
		Dropped:         b.dropped.Load(),
		Expired:         b.expired.Load(),
		SlowDropped:     b.slowDropped.Load(),
		SlowDisconnects: b.slowDisconnects.Load(),
	}
}

// NumFilters returns the total number of installed filters — the paper's
// n_fltr when a single topic is in use.
func (b *Broker) NumFilters() int { return b.registry.TotalSubscriptions() }

// Close shuts the broker down: publishers get ErrClosed, accepted messages
// are dispatched, dispatchers stop, and every subscription ends.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.closed = true
	dispatchers := make([]*dispatcher, 0, len(b.dispatchers))
	for _, d := range b.dispatchers {
		dispatchers = append(dispatchers, d)
	}
	handles := make([]*Subscriber, 0, len(b.handles)+len(b.durableHandles))
	for _, h := range b.handles {
		handles = append(handles, h)
	}
	for h := range b.durableHandles {
		handles = append(handles, h)
	}
	durables := make([]*durableSub, 0, len(b.durables))
	for _, d := range b.durables {
		durables = append(durables, d)
	}
	b.mu.Unlock()

	// 1. Stop dispatchers; they drain already-accepted messages.
	for _, d := range dispatchers {
		close(d.stop)
	}
	for _, d := range dispatchers {
		d.running.Wait()
	}
	// 2. Stop durable pumps; each moves what its relay still holds into
	//    the backlog and on to its consumer.
	for _, d := range durables {
		d.stop()
	}
	b.wg.Wait()

	// 3. End every subscription. Nothing more is queued for any of them;
	//    Receive still returns what is, a durable consumer's backlog
	//    included.
	for _, h := range handles {
		h.once.Do(func() { close(h.gone) })
	}
	return nil
}
