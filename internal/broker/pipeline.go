package broker

import (
	"sync"
	"time"

	"repro/internal/jms"
	"repro/internal/topic"
	"repro/internal/trace"
)

// This file implements the dispatch pipeline shared by every engine. Per
// topic, a message flows through four stages:
//
//	Publish → worker intake → receive → match → replicate → transmit
//
// which are exactly the terms of the paper's processing-time decomposition
// (Eq. 1): E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx. The stage
// implementations (Matcher and Replicator — see stage.go) are what
// distinguish the engines; the loop, the shutdown drain and the tape and
// flight-recorder stamps live here, once.
//
// Each topic runs k dispatch workers: Options.Shards on the fast engine, 1
// on the faithful one. A worker is the paper's single message-processing
// resource: it has its own intake queue, matcher and scratch, and runs all
// four stages inline, one message at a time, to completion. Every publish
// carries a publisher key (Broker.Publisher) and goes to worker key mod k,
// so one publisher's messages are served by one worker in the order they
// were published, and per-publisher FIFO needs no sequence numbers.
//
// Shutdown: closing d.stop makes every worker drain its intake queue
// completely (persistent semantics: no loss for accepted messages) and
// exit; d.running waits for them.

// pubUnit is one intake-queue entry: one publish in a pooled carrier —
// every publish is one carrier unit, a single message a batch of one —
// which the worker recycles after the unit's last transmit, or, when its
// messages' slabs are to be reused, leaves to the unit's queued deliveries
// to release (see carrier.go). A unit occupies a single in-flight slot —
// amortizing the push-back window over its messages is the point of
// batching — and fans out per message in the worker. Every worker
// preallocates Options.InFlight units, so the unit is kept at 16 bytes.
type pubUnit struct {
	c *BatchCarrier
	// enqueued is the enqueue stamp of every message of the unit
	// (Broker.stamp), 0 when no instrument asked for one.
	enqueued int64
}

// dispatcher is one topic's dispatch machinery: the engine's stage
// configuration, the workers, and the stop signal.
type dispatcher struct {
	b       *Broker
	topic   *topic.Topic
	st      stageSet
	tracer  *trace.Recorder // nil when Options.Tracer is unset
	workers []*worker
	stop    chan struct{}
	running sync.WaitGroup // the workers' goroutines
	// tt is the topic's waiting-time tracing state; nil unless
	// Options.WaitTiming (see tracing.go).
	tt *topicTimers
}

// worker is one run-to-completion dispatch worker of a topic: its intake
// queue, its matcher, and the scratch that keeps its steady state
// allocation-free — members and buf. buf holds every member's matches of
// one unit back to back; it grows to the largest unit total seen (up to
// maxBatchMatches) and stays there, so a steady fan-out of R matches per
// member regrows nothing. Only the worker's goroutine touches the scratch.
type worker struct {
	d       *dispatcher
	id      int
	in      chan pubUnit
	mt      Matcher
	members []result
	buf     []*Subscriber
}

// maxBatchMatches bounds the batch match scratch a worker keeps, as
// maxCarrierMsgs bounds the carrier pool: a batch matching more
// subscriptions than this in total is matched into slices of its own, so
// one huge fan-out does not pin its scratch for the worker's life.
const maxBatchMatches = 1 << 14

// result is one matched message on its way to replicate and transmit.
type result struct {
	m        *jms.Message
	matches  []*Subscriber
	nFilters int
	// evals is the number of filter evaluations performed by the match
	// stage; the worker folds it into the broker counter (batched units
	// fold all members in one update).
	evals   int
	expired bool
	// traced marks a head-sampled flight-recorder message: the pipeline
	// records per-stage spans for it. Decided once in frontStages so the
	// commit side never re-hashes the TraceID.
	traced bool
	// start is the dispatch-start instant, the end of the message's
	// waiting time W and the origin of its service time B. Zero unless
	// waiting-time tracing or the flight recorder is on.
	start time.Time
	// enqueued is the unit's enqueue instant, zero when start is. bodyLen
	// and traceID are m's fields the commit side records after the
	// transmit, read before it: once put, m may belong to a receiver that
	// mutates it.
	enqueued time.Time
	bodyLen  int
	traceID  uint64
}

// start launches the engine's workers, each with an intake queue of
// Options.InFlight units.
func (d *dispatcher) start() {
	d.workers = make([]*worker, d.st.workers)
	for i := range d.workers {
		d.workers[i] = &worker{
			d: d, id: i, in: make(chan pubUnit, d.b.opts.InFlight),
			mt: d.st.newMatcher(), buf: make([]*Subscriber, 0, 16),
		}
	}
	d.running.Add(len(d.workers))
	for _, w := range d.workers {
		go w.run()
	}
}

// intake returns the intake queue of the worker a publisher key selects.
func (d *dispatcher) intake(key uint64) chan<- pubUnit {
	return d.workers[key%uint64(len(d.workers))].in
}

// run serves every unit accepted on w.in until d.stop closes, then drains
// the queue completely before returning — the accepted-message no-loss
// guarantee.
func (w *worker) run() {
	d := w.d
	defer d.running.Done()
	for {
		// A queued unit is taken without the select on d.stop, which would
		// lock d.stop as well as w.in, the channel publishers contend for.
		select {
		case u := <-w.in:
			w.serve(u)
			continue
		default:
		}
		select {
		case u := <-w.in:
			w.serve(u)
		case <-d.stop:
			for {
				select {
				case u := <-w.in:
					w.serve(u)
				default:
					return
				}
			}
		}
	}
}

// serve runs all four stages for one unit. Its messages are matched one
// by one against the worker's scratch, their filter evaluations fold into
// the broker counter once, and then they are committed in order. Message
// 0's tape start is its receive stamp, so its B covers every message's
// match; each later message's B is its own commit.
func (w *worker) serve(u pubUnit) {
	b := w.d.b
	batch := u.c.Msgs
	if cap(w.members) < len(batch) {
		w.members = make([]result, len(batch))
	}
	members, buf := w.members[:len(batch)], w.buf[:0]
	var evals uint64
	var total int
	for i, m := range batch {
		start := len(buf)
		res, ok := w.frontStages(m, u.enqueued, buf[start:start:cap(buf)])
		res.expired = !ok
		got := res.matches
		if n := len(got); n > 0 && start+n <= cap(buf) && &got[0] == &buf[:start+1][start] {
			// Appended in place: advance buf past the segment and cap the
			// member's view so later appends cannot grow into it.
			buf = buf[:start+n]
			res.matches = buf[start : start+n : start+n]
		}
		evals += uint64(res.evals)
		total += len(res.matches)
		members[i] = res
	}
	if total > cap(w.buf) && total <= maxBatchMatches {
		// Some member overflowed the scratch into a slice of its own: size
		// it for this batch's total, so the next batch like it fits.
		w.buf = make([]*Subscriber, 0, total)
	}
	b.countAdd(&b.filterEvals, evals)
	// A carrier's messages belong to the broker (see BatchCarrier) unless
	// Publish or PublishBatch borrowed them, so an engine that allows it
	// hands each one's last outbox run the original.
	owned := !u.c.borrowed && w.d.st.handOff
	// The worker holds a carrier with slabs until every member is
	// committed, so no consumer's release can free it before the last put.
	hold := u.c.hold()
	// The members are one service: each after the first starts, on the
	// tape, where the one committed before it ended.
	var prevEnd time.Time
	for i := range members {
		if !members[i].expired {
			prevEnd = w.commitStages(&members[i], prevEnd, owned, hold)
		}
	}
	// Recycle-after-transmit: the unit is fully committed and nothing
	// downstream holds the carrier's slices; the deliveries still queued
	// may hold its slabs.
	if hold != nil {
		hold.unhold(1)
	} else {
		u.c.recycle()
	}
}

// frontStages runs the receive and match stages for one message of a unit
// stamped stamp, appending matches to dst. It returns ok=false for an
// expired message (already counted; nothing to commit). The returned result
// aliases dst. The clock is read only for the tape's dispatch start and a
// traced message's spans.
func (w *worker) frontStages(m *jms.Message, stamp int64, dst []*Subscriber) (result, bool) {
	d, b := w.d, w.d.b
	// Receive-stage work: waiting-time observation and expiration check.
	traced := d.tracer.Sampled(m.Header.TraceID)
	var start, enqueued time.Time
	if tt := d.tt; (tt != nil || traced) && stamp != 0 {
		enqueued = b.unstamp(stamp)
		start = b.now()
		wait := start.Sub(enqueued)
		if tt != nil {
			tt.wait.Observe(wait)
		}
		if traced {
			// The per-message sample of the model's E[W].
			d.tracer.RecordSpan(m.Header.TraceID, trace.StageQueue, enqueued, wait)
		}
	}
	if m.Header.Expiration != 0 && m.Expired(b.now()) {
		b.countAdd(&b.expired, 1)
		return result{m: m, matches: dst}, false
	}

	// Match stage: n_fltr·t_fltr.
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	matches, nFilters, evals := w.mt.Match(d.topic, m, dst)
	if traced {
		d.tracer.RecordSpan(m.Header.TraceID, trace.StageMatch, t0, time.Since(t0))
	}
	return result{
		m: m, matches: matches, nFilters: nFilters, evals: evals, start: start, traced: traced,
		enqueued: enqueued, bodyLen: len(m.Body), traceID: m.Header.TraceID,
	}, true
}

// traceCommit records the sojourn time of one committed message — the
// end of the span opened at enqueue — appends it to the topic's tape once
// one has been taken, and closes out its flight record: head-sampled
// messages get their covariates (n_fltr, R) and sojourn attached,
// unsampled ones are offered to the recorder's tail keeper as skeleton
// traces when slow enough. A non-zero prevEnd replaces res.start as the
// tape's dispatch start (see serve). It returns the commit end, zero when
// the message was not stamped.
func (w *worker) traceCommit(res *result, prevEnd time.Time) time.Time {
	if res.start.IsZero() {
		return time.Time{}
	}
	d := w.d
	end := d.b.now()
	if tt := d.tt; tt != nil {
		if tp := tt.tape.Load(); tp != nil {
			start := res.start
			if !prevEnd.IsZero() {
				start = prevEnd
			}
			tp.record(TapeEntry{
				Enqueued: res.enqueued, Start: start, End: end,
				Evals: res.evals, R: len(res.matches), BodyBytes: res.bodyLen, Worker: w.id,
			})
		}
		tt.sojourn.Observe(end.Sub(res.enqueued))
	}
	if d.tracer == nil {
		return end
	}
	id := res.traceID
	sojourn := end.Sub(res.enqueued)
	if res.traced {
		d.tracer.FinishMessage(id, d.topic.Name(), res.nFilters, len(res.matches), sojourn)
	} else if id != 0 {
		d.tracer.OfferTail(id, d.topic.Name(), res.nFilters, len(res.matches),
			res.enqueued, res.start.Sub(res.enqueued), sojourn)
	}
	return end
}

// commitStages runs the replicate and transmit stages — R copies for R
// matching subscribers, Eq. 1's E[R]·t_tx — except that a run of matches
// sharing one connection's Outbox takes one copy and one put, and the
// connection sends it once for all of them. With R > 1 every run gets a
// replica, the last one included, unless owned is set: then the broker owns
// m (a BatchCarrier's message on an engine with stageSet.handOff) and the
// last run takes m itself (see Replicator). Nothing here reads m after its
// last put. Each run's deliveries hold the carrier hold, the unit's when
// its slabs are to be reused (else nil), except in an outbox of one
// subscription's own, whose reader keeps what it receives: that run makes
// the carrier escape instead.
// A traced message's per-copy timing windows tile the whole loop (each
// window ends where the next begins), so its replicate and transmit spans
// sum to the commit time. prevEnd and the returned commit end are
// traceCommit's.
func (w *worker) commitStages(res *result, prevEnd time.Time, owned bool, hold *BatchCarrier) time.Time {
	d := w.d
	m, matches, mode := res.m, res.matches, res.m.Header.DeliveryMode
	var start, prev time.Time
	var replDur, txDur time.Duration
	if res.traced {
		start = time.Now()
		prev = start
	}
	for i := 0; i < len(matches); {
		h, j := matches[i], i+1
		for j < len(matches) && matches[j].out == h.out {
			j++
		}
		copyMsg := m
		if len(matches) > 1 && !(owned && j == len(matches)) {
			copyMsg = d.st.replicator.Replicate(m)
			if res.traced {
				now := time.Now()
				replDur += now.Sub(prev)
				prev = now
			}
		}
		held := hold
		if held != nil && h.out.solo != nil {
			held.escaped.Store(true)
			held = nil
		}
		h.out.put(copyMsg, held, matches[i:j], mode, d.b.opts.SlowConsumer, d.stop)
		if res.traced {
			now := time.Now()
			txDur += now.Sub(prev)
			prev = now
		}
		i = j
	}
	if res.traced {
		// Aggregated per-stage spans: exact summed durations; the
		// replicate/transmit interleaving is flattened so the two spans
		// tile the commit window.
		if replDur > 0 {
			d.tracer.RecordSpan(res.traceID, trace.StageReplicate, start, replDur)
		}
		d.tracer.RecordSpan(res.traceID, trace.StageTransmit, start.Add(replDur), txDur)
	}
	return w.traceCommit(res, prevEnd)
}
