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
//	sojourn = enqueue → last transmit    (W + B, the response time T),
//
// into the cumulative histograms /metrics exposes, and counts the
// messages accepted (Received).
//
// The same stamps, with the match stage's evaluation count, the replica
// count, the body size and the serving worker, also go to the topic's
// tape: a ring of TapeCapacity TapeEntry values (104 bytes each, ~1.6 MiB
// per topic) in commit order, the recorded sample path from which both the
// live drift monitor and the offline conformance checks read W, the
// service time B = End − Start and the batch sizes. No clock is read for
// it: an entry reuses the stamps the histograms take. The ring is
// allocated by the first TakeTape on the topic, so a broker whose tape is
// never read pays one nil check per message for it.
//
// Each dispatch worker is a single resource that serves its messages to
// completion, one at a time, so on both engines B is the true
// single-resource service time of the paper's model. Every entry names its
// worker: a topic with k workers keeps one tape, and each worker's entries
// are one FIFO server's sample path. A batch's members are one unit on
// that path: they share one Enqueued stamp, and each member after the
// first starts where the member committed before it ended, so the
// members' B values sum to the unit's service span.

// topicTimers is one topic's tracing state. All fields are lock-cheap and
// sit on the dispatch path only when Options.WaitTiming is set.
type topicTimers struct {
	received metrics.Counter // messages accepted into the topic queue
	wait     metrics.Histogram
	sojourn  metrics.Histogram
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
	// Worker is the dispatch worker that served the message, in [0, k).
	Worker int
}

// tape is the bounded ring behind TakeTape, shared by the topic's workers.
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
//
// A tape has one reader: every call takes what the previous one left, so
// two readers of one topic each see part of its path. In jmsd that reader
// is the drift monitor (telemetry.Monitor); in tests it is the scenario
// runner or the conformance leg.
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

// ServiceMoments returns the raw moments E[B], E[B²], E[B³] of the service
// time B = End − Start over a non-empty tape, in seconds: the measured
// inputs of the Pollaczek–Khinchine forms (Eqs. 4–5).
func ServiceMoments(tape []TapeEntry) (m1, m2, m3 float64) {
	for _, e := range tape {
		s := e.End.Sub(e.Start).Seconds()
		m1 += s
		m2 += s * s
		m3 += s * s * s
	}
	n := float64(len(tape))
	return m1 / n, m2 / n, m3 / n
}

// TopicTelemetry is a point-in-time snapshot of one topic's tracing state.
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
}

// snapshot copies the timer state.
func (tt *topicTimers) snapshot() TopicTelemetry {
	return TopicTelemetry{
		Received: tt.received.Value(),
		Wait:     tt.wait.Snapshot(),
		Sojourn:  tt.sojourn.Snapshot(),
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
