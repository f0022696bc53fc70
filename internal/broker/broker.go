// Package broker implements the JMS-style publish/subscribe server whose
// performance the paper studies. Dispatch is a staged pipeline with exactly
// the structure the paper's processing-time model assumes (Eq. 1):
//
//   - receive a message once (cost t_rcv),
//   - match it against the topic's installed filters (cost n_fltr*t_fltr),
//   - replicate and transmit one copy per matching subscriber (cost R*t_tx).
//
// The pipeline loop is shared by every engine (pipeline.go); an Engine is a
// configuration of the stage implementations (stage.go): the faithful
// linear-scan/deep-copy pair the paper measures, or the fast indexed/
// copy-on-write pair. With Options.StageTiming the per-stage times are
// recorded per message (instrument.go), making the Eq. 1 terms directly
// measurable on the running system.
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
	// ErrQueueFull is returned by TryPublish when the topic's in-flight
	// window is exhausted (the push-back condition).
	ErrQueueFull = errors.New("broker: topic queue full")
)

// Options configure a Broker.
type Options struct {
	// InFlight sizes each per-topic queue between Publish and the transmit
	// stage; publishers block (push-back) once all of them are full. Default
	// 64. The received-but-undispatched residency it allows is larger than
	// the value itself: InFlight + 1 on the serial pipeline (the intake
	// queue and the message in the loop), and 3·InFlight + Shards + 2 on the
	// sharded one (intake, work and commit queues of InFlight each, one
	// more held by the sequencer, by every shard and by the committer, and
	// on top whatever the reorder buffer holds while a shard lags behind
	// its neighbours) — in both cases plus SubscriberBuffer for each
	// subscriber whose full queue blocks the transmit stage.
	InFlight int
	// SubscriberBuffer is the per-subscriber delivery queue length.
	// Default 64.
	SubscriberBuffer int
	// Engine selects the dispatch implementation. The zero value is
	// EngineFaithful, keeping the paper reproduction the default.
	Engine Engine
	// Shards is the number of concurrent filter-matching workers per topic
	// on EngineFast. Default: GOMAXPROCS, capped at 8. Ignored by
	// EngineFaithful.
	Shards int
	// SlowConsumer selects what a persistent-mode transmit does when a
	// subscriber's delivery queue is full: block (default, the paper's
	// push-back), drop-oldest, or disconnect. See SlowConsumerPolicy.
	SlowConsumer SlowConsumerPolicy
	// StageTiming records every message's time in each pipeline stage
	// (receive, match, replicate, transmit), exposed by StageStats. Off by
	// default: the timing adds clock reads to the dispatch hot path, so
	// paper-facing throughput runs should leave it disabled.
	StageTiming bool
	// WaitTiming stamps each message at broker enqueue and records its
	// waiting time W (enqueue → dispatch start), service time B (dispatch
	// start → last transmit) and sojourn time (enqueue → last transmit)
	// into per-topic histograms and raw-moment accumulators, exposed by
	// Telemetry. This is the measured side of the live model-drift
	// monitor; off by default for the same hot-path reason as StageTiming.
	// The same stamps also feed each topic's service-time tape, one
	// TapeEntry per committed message in a ring of TapeCapacity entries
	// (~1.5 MiB per topic), allocated by the first TakeTape on the topic;
	// until then recording costs one nil check (see tracing.go).
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

	// timers are the per-stage histograms; nil unless Options.StageTiming.
	timers *stageTimers

	// now is the dispatch clock; injectable for expiration tests.
	now func() time.Time
}

// New creates a broker with the given options.
func New(opts Options) *Broker {
	b := &Broker{
		opts:           opts.withDefaults(),
		registry:       topic.NewRegistry(),
		dispatchers:    make(map[string]*dispatcher),
		handles:        make(map[topic.SubscriptionID]*Subscriber),
		durables:       make(map[string]*durableSub),
		durableHandles: make(map[*Subscriber]struct{}),
		now:            time.Now,
	}
	if b.opts.StageTiming {
		b.timers = &stageTimers{}
	}
	return b
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
		topic: t,
		in:    make(chan pubUnit, b.opts.InFlight),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if b.opts.WaitTiming {
		d.tt = &topicTimers{}
	}
	b.dispatchers[name] = d
	p := &pipeline{b: b, d: d, st: b.stages(b.opts.Engine), timers: b.timers, tracer: b.opts.Tracer}
	p.tx = queueTransmitter{b: b, d: d}
	p.start()
	return nil
}

// Topics returns the names of all configured topics.
func (b *Broker) Topics() []string { return b.registry.Topics() }

// Publish delivers a message to the broker, blocking while the topic's
// in-flight window is full (publisher push-back). The message must not be
// modified by the caller afterwards.
func (b *Broker) Publish(ctx context.Context, m *jms.Message) error {
	d, err := b.dispatcherFor(m)
	if err != nil {
		return err
	}
	if d.tt != nil || b.opts.Tracer != nil {
		m.EnqueuedAt = b.now()
	}
	select {
	case d.in <- pubUnit{m: m}:
		b.countAdd(&b.received, 1)
		if d.tt != nil {
			d.tt.received.Inc()
			d.tt.batchM.ObserveValue(1)
		}
		return nil
	case <-d.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PublishBatch delivers several messages as one dispatch unit, blocking
// like Publish while the topic's in-flight window is full. The whole batch
// occupies a single in-flight slot regardless of its size — amortizing the
// push-back window is the point of batching — and its messages fan out to
// subscribers individually, in slice order. A batch spanning topics is
// split into consecutive same-topic runs, each enqueued as its own unit in
// slice order; on error a suffix of those runs was not accepted (the
// already-enqueued prefix is dispatched normally). The broker retains the
// slice: neither it nor the messages may be modified by the caller
// afterwards — hand over a fresh slice per call.
func (b *Broker) PublishBatch(ctx context.Context, msgs []*jms.Message) error {
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return b.Publish(ctx, msgs[0])
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
		if err := b.sendUnit(ctx, r.d, r.msgs); err != nil {
			return err
		}
	}
	return nil
}

// sendUnit stamps and enqueues one same-topic run as a single pubUnit.
func (b *Broker) sendUnit(ctx context.Context, d *dispatcher, msgs []*jms.Message) error {
	if d.tt != nil || b.opts.Tracer != nil {
		now := b.now()
		for _, m := range msgs {
			m.EnqueuedAt = now
		}
	}
	select {
	case d.in <- pubUnit{batch: msgs}:
		b.countAdd(&b.received, uint64(len(msgs)))
		if d.tt != nil {
			d.tt.received.Add(uint64(len(msgs)))
			d.tt.batchM.ObserveValue(float64(len(msgs)))
		}
		return nil
	case <-d.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryPublish is Publish without blocking: it returns ErrQueueFull when the
// push-back window is exhausted.
func (b *Broker) TryPublish(m *jms.Message) error {
	d, err := b.dispatcherFor(m)
	if err != nil {
		return err
	}
	if d.tt != nil || b.opts.Tracer != nil {
		m.EnqueuedAt = b.now()
	}
	select {
	case d.in <- pubUnit{m: m}:
		b.countAdd(&b.received, 1)
		if d.tt != nil {
			d.tt.received.Inc()
			d.tt.batchM.ObserveValue(1)
		}
		return nil
	case <-d.stop:
		return ErrClosed
	default:
		return ErrQueueFull
	}
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

// Subscriber is a subscription handle with its delivery queue. It is
// either a regular (non-durable) subscription backed by a registry entry,
// or the attached consumer of a durable subscription.
type Subscriber struct {
	sub     *topic.Subscription
	broker  *Broker
	ch      chan *jms.Message
	gone    chan struct{}
	once    sync.Once
	durable *durableSub // nil for regular subscriptions

	// sendMu serializes transmits against Unsubscribe: Unsubscribe closes
	// gone (waking any transmit blocked on a full queue), then sets dead
	// under the lock, so once Unsubscribe returns no in-flight dispatch
	// can still enqueue a delivery.
	sendMu sync.Mutex
	dead   bool // guarded by sendMu

	// slow marks a handle force-removed by the disconnect slow-consumer
	// policy; Receive then reports ErrSlowConsumer instead of ErrClosed.
	slow atomic.Bool
	// removeOnce guards registry removal, shared between Unsubscribe and
	// the broker-initiated slow-consumer kick so the loser is a no-op
	// instead of an error.
	removeOnce sync.Once

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
	if buffer <= 0 {
		buffer = b.opts.SubscriberBuffer
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	h := &Subscriber{
		broker: b,
		ch:     make(chan *jms.Message, buffer),
		gone:   make(chan struct{}),
	}
	sub, err := b.registry.Subscribe(topicName, f, h)
	if err != nil {
		return nil, err
	}
	h.sub = sub
	b.handles[sub.ID] = h
	return h, nil
}

// Chan returns the delivery channel. It is closed when the broker shuts
// down. After Unsubscribe the channel stops receiving new messages but is
// left open; use Receive, which also observes unsubscription.
func (s *Subscriber) Chan() <-chan *jms.Message { return s.ch }

// Receive blocks for the next message. It returns ErrClosed after the
// subscriber was unsubscribed or the broker shut down, and
// ErrSlowConsumer (which wraps ErrClosed) after the broker force-removed
// the subscription under the disconnect slow-consumer policy.
func (s *Subscriber) Receive(ctx context.Context) (*jms.Message, error) {
	select {
	case m, ok := <-s.ch:
		if !ok {
			return nil, s.closeErr()
		}
		return m, nil
	case <-s.gone:
		return nil, s.closeErr()
	case <-ctx.Done():
		return nil, ctx.Err()
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

// Unsubscribe removes the subscription. Messages already queued may be
// drained from Chan, but no new delivery is enqueued once Unsubscribe has
// returned; Receive returns ErrClosed. For a durable consumer handle this
// detaches the consumer — the durable subscription itself keeps
// accumulating messages until UnsubscribeDurable.
func (s *Subscriber) Unsubscribe() error {
	return s.unsubscribe(nil)
}

// UnsubscribeRequeue is Unsubscribe for an acked consumer: the unacked
// messages — delivered to the consumer but never acknowledged — are
// returned to the head of the durable backlog (in their original
// delivery order) before any residual still queued in the channel, so
// the next attach redelivers them. On a non-durable subscription the
// list is discarded (a disconnected non-durable subscriber is
// forgotten, unacked deliveries included).
func (s *Subscriber) UnsubscribeRequeue(unacked []*jms.Message) error {
	return s.unsubscribe(unacked)
}

func (s *Subscriber) unsubscribe(unacked []*jms.Message) error {
	var err error
	s.once.Do(func() {
		if s.durable != nil && len(unacked) > 0 {
			// Stash before closing gone: closing gone can make the
			// delivery goroutine run finish() immediately, and it must
			// observe the requeue list there.
			d := s.durable
			d.mu.Lock()
			if d.active == s {
				d.preRequeue = unacked
			}
			d.mu.Unlock()
		}
		close(s.gone)
		if s.durable != nil {
			s.broker.detachDurable(s)
			return
		}
		// Closing gone wakes a transmit blocked on this subscriber's full
		// queue; taking the send lock then waits out any transmit already
		// past its dead check, so after this point no dispatch — even one
		// holding an older topic snapshot — can deliver to this handle.
		s.sendMu.Lock()
		s.dead = true
		s.sendMu.Unlock()
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

// EffectiveServers returns the number of parallel dispatch workers the
// engine runs per topic: 1 on EngineFaithful (the paper's single-server
// pipeline), Options.Shards on EngineFast. This is the k fed to the M/G/k
// drift model.
func (b *Broker) EffectiveServers() int {
	if b.opts.Engine == EngineFast {
		return b.opts.Shards
	}
	return 1
}

// NumFilters returns the total number of installed filters — the paper's
// n_fltr when a single topic is in use.
func (b *Broker) NumFilters() int { return b.registry.TotalSubscriptions() }

// Close shuts the broker down: publishers get ErrClosed, accepted messages
// are drained, dispatchers stop, and all subscriber channels are closed.
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
	handles := make([]*Subscriber, 0, len(b.handles))
	for _, h := range b.handles {
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
		<-d.done
	}
	// 2. Stop durable pumps (they drain their relays, set pumpDone and
	//    wake delivery goroutines, which then drain best-effort and close
	//    their consumer channels).
	for _, d := range durables {
		d.signalStop()
	}
	b.wg.Wait()

	// 3. Close regular subscriber channels (dispatchers have exited, so
	//    no sender remains). Durable consumer channels are closed by
	//    their delivery goroutines.
	for _, h := range handles {
		h.once.Do(func() { close(h.gone) })
		close(h.ch)
	}
	return nil
}
