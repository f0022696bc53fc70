package broker

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// This file is the broker's per-topic waiting-time tracing: with
// Options.WaitTiming enabled, every accepted message is stamped at enqueue
// (jms.Message.EnqueuedAt) and the pipeline records, per topic,
//
//	W       = enqueue → dispatch start   (the paper's waiting time),
//	B       = dispatch start → last transmit (the service time),
//	sojourn = enqueue → last transmit    (W + B, the response time T),
//
// into histograms and raw-moment accumulators. The moment accumulators
// keep exact Σx, Σx², Σx³ so a telemetry consumer can evaluate the
// Pollaczek–Khinchine closed forms (Eqs. 4–5) and the Gamma quantile
// approximation (Eqs. 19–20) from measured moments over a rolling window —
// the live counterpart of the offline conformance suite.
//
// The same three stamps, with the match stage's evaluation count, the
// replica count and the body size, also go to the topic's tape: a ring of
// TapeCapacity TapeEntry values (96 bytes each, ~1.5 MiB per topic) in
// commit order, the recorded sample path an offline check replays. No
// clock is read for it. The ring is allocated by the first TakeTape on
// the topic, so a broker whose tape is never read (jmsd's telemetry plane)
// pays one nil check per message for it.
//
// On the serial (faithful) engine B is the true single-resource service
// time of the paper's model. On the sharded fast engine dispatch overlaps
// across messages, so B includes reorder-commit wait and the M/GI/1
// prediction built from it is an approximation; the drift monitor surfaces
// exactly that divergence.

// topicTimers is one topic's tracing state. All fields are lock-cheap and
// sit on the dispatch path only when Options.WaitTiming is set.
type topicTimers struct {
	received metrics.Counter // messages accepted into the topic queue
	wait     metrics.Histogram
	sojourn  metrics.Histogram
	waitM    metrics.Moments
	serviceM metrics.Moments
	// batchM accumulates the per-arrival batch size X (1 for every plain
	// Publish), whose moments drive the M^X/G/1 batch-arrival extension.
	batchM metrics.Moments
	// tape is nil until the first TakeTape.
	tape atomic.Pointer[tape]
}

// TapeCapacity is the number of entries a topic's tape holds between two
// TakeTape calls; older entries are overwritten and counted.
const TapeCapacity = 1 << 14

// TapeEntry is one committed message on a topic's tape.
type TapeEntry struct {
	// Enqueued, Start and End are the message's broker enqueue, dispatch
	// start and last transmit: W = Start − Enqueued, B = End − Start.
	Enqueued, Start, End time.Time
	// Evals is the match stage's filter evaluations (its share of
	// Stats.FilterEvals), R the replicas it transmitted and BodyBytes the
	// body size.
	Evals, R, BodyBytes int
}

// tape is the bounded ring behind TakeTape. The topic's committing
// goroutine is its only writer.
type tape struct {
	mu          sync.Mutex
	ring        []TapeEntry
	next, n     int // write index, entries held
	overwritten uint64
}

func (tp *tape) record(e TapeEntry) {
	tp.mu.Lock()
	tp.ring[tp.next] = e
	tp.next = (tp.next + 1) % len(tp.ring)
	if tp.n < len(tp.ring) {
		tp.n++
	} else {
		tp.overwritten++
	}
	tp.mu.Unlock()
}

// take returns the held entries oldest first and empties the ring.
func (tp *tape) take() ([]TapeEntry, uint64) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := make([]TapeEntry, tp.n)
	first := (tp.next - tp.n + len(tp.ring)) % len(tp.ring)
	k := copy(out, tp.ring[first:])
	copy(out[k:], tp.ring[:tp.n-k])
	overwritten := tp.overwritten
	tp.n, tp.overwritten = 0, 0
	return out, overwritten
}

// TakeTape returns the topic's tape entries committed since the previous
// call, in commit order, with the number the ring overwrote in between,
// and empties the tape. The first call allocates the ring and returns
// nothing: recording starts there. Without Options.WaitTiming, or for an
// unknown topic, it returns nil, 0.
func (b *Broker) TakeTape(topicName string) ([]TapeEntry, uint64) {
	b.mu.Lock()
	d := b.dispatchers[topicName]
	b.mu.Unlock()
	if d == nil || d.tt == nil {
		return nil, 0
	}
	if tp := d.tt.tape.Load(); tp != nil {
		return tp.take()
	}
	d.tt.tape.CompareAndSwap(nil, &tape{ring: make([]TapeEntry, TapeCapacity)})
	return nil, 0
}

// MeanService is the mean service time B = End − Start over a tape, in
// seconds.
func MeanService(tape []TapeEntry) float64 {
	var sum time.Duration
	for _, e := range tape {
		sum += e.End.Sub(e.Start)
	}
	return sum.Seconds() / float64(len(tape))
}

// TopicTelemetry is a point-in-time snapshot of one topic's tracing state.
// Snapshots from two instants subtract (Sub) into a rolling window.
type TopicTelemetry struct {
	// Received counts messages accepted into the topic queue — the λ
	// numerator of a windowed arrival-rate estimate.
	Received uint64
	// Wait is the per-message waiting-time histogram (enqueue → dispatch
	// start).
	Wait metrics.HistogramSnapshot
	// Sojourn is the per-message sojourn-time histogram (enqueue → last
	// transmit of the message's replicas).
	Sojourn metrics.HistogramSnapshot
	// WaitMoments are the raw moments of the waiting time in seconds.
	WaitMoments metrics.MomentsSnapshot
	// ServiceMoments are the raw moments of the service time in seconds —
	// the measured E[B], E[B^2], E[B^3] of Eqs. 4–5.
	ServiceMoments metrics.MomentsSnapshot
	// BatchMoments are the raw moments of the arrival batch size X
	// (dimensionless; 1 per plain Publish). N counts arrival units, so the
	// windowed batch-arrival rate is BatchMoments.N / window while Received
	// stays the per-message λ numerator.
	BatchMoments metrics.MomentsSnapshot
}

// Sub returns the windowed delta s - prev, clamping on counter skew.
func (s TopicTelemetry) Sub(prev TopicTelemetry) TopicTelemetry {
	recv := s.Received
	if prev.Received > recv {
		recv = 0
	} else {
		recv -= prev.Received
	}
	return TopicTelemetry{
		Received:       recv,
		Wait:           s.Wait.Sub(prev.Wait),
		Sojourn:        s.Sojourn.Sub(prev.Sojourn),
		WaitMoments:    s.WaitMoments.Sub(prev.WaitMoments),
		ServiceMoments: s.ServiceMoments.Sub(prev.ServiceMoments),
		BatchMoments:   s.BatchMoments.Sub(prev.BatchMoments),
	}
}

// snapshot copies the timer state.
func (tt *topicTimers) snapshot() TopicTelemetry {
	return TopicTelemetry{
		Received:       tt.received.Value(),
		Wait:           tt.wait.Snapshot(),
		Sojourn:        tt.sojourn.Snapshot(),
		WaitMoments:    tt.waitM.Snapshot(),
		ServiceMoments: tt.serviceM.Snapshot(),
		BatchMoments:   tt.batchM.Snapshot(),
	}
}

// Telemetry returns a snapshot of every topic's tracing state. Without
// Options.WaitTiming the broker records nothing and the map is empty.
func (b *Broker) Telemetry() map[string]TopicTelemetry {
	b.mu.Lock()
	timers := make(map[string]*topicTimers, len(b.dispatchers))
	for name, d := range b.dispatchers {
		if d.tt != nil {
			timers[name] = d.tt
		}
	}
	b.mu.Unlock()
	out := make(map[string]TopicTelemetry, len(timers))
	for name, tt := range timers {
		out[name] = tt.snapshot()
	}
	return out
}
