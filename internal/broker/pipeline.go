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

// pubUnit is one intake-queue entry: either a single message (m non-nil)
// or a batch accepted as one unit. A batch occupies a single in-flight
// slot — amortizing the push-back window over its messages is the point of
// batching — and fans out per message in the worker.
type pubUnit struct {
	m     *jms.Message
	batch []*jms.Message
	// carrier, when non-nil, is the pooled unit that owns batch; the worker
	// recycles it after the batch's last transmit (see carrier.go).
	carrier *BatchCarrier
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
// allocation-free — matches for single messages, members and buf for
// batches. Only the worker's goroutine touches the scratch.
type worker struct {
	d       *dispatcher
	id      int
	in      chan pubUnit
	mt      Matcher
	matches []*Subscriber
	members []result
	buf     []*Subscriber
}

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
}

// start launches the engine's workers, each with an intake queue of
// Options.InFlight units.
func (d *dispatcher) start() {
	d.workers = make([]*worker, d.st.workers)
	for i := range d.workers {
		d.workers[i] = &worker{
			d: d, id: i, in: make(chan pubUnit, d.b.opts.InFlight),
			mt: d.st.newMatcher(), matches: make([]*Subscriber, 0, 16),
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

// serve runs all four stages for one unit. A batch is matched member by
// member against the worker's batch scratch, its filter evaluations fold
// into the broker counter once, and then its members are committed in
// order. Member 0's tape start is its receive stamp, so its B covers every
// member's match; each later member's B is its own commit.
func (w *worker) serve(u pubUnit) {
	b := w.d.b
	if u.m != nil {
		res, ok := w.frontStages(u.m, w.matches[:0])
		w.matches = res.matches[:0]
		b.countAdd(&b.filterEvals, uint64(res.evals))
		if ok {
			w.commitStages(&res, time.Time{})
		}
		return
	}
	if cap(w.members) < len(u.batch) {
		w.members = make([]result, len(u.batch))
		w.buf = make([]*Subscriber, 0, len(u.batch))
	}
	members, buf := w.members[:len(u.batch)], w.buf[:0]
	var evals uint64
	for i, m := range u.batch {
		start := len(buf)
		res, ok := w.frontStages(m, buf[start:start:cap(buf)])
		res.expired = !ok
		got := res.matches
		if n := len(got); n > 0 && start+n <= cap(buf) && &got[0] == &buf[:start+1][start] {
			// Appended in place: advance buf past the segment and cap the
			// member's view so later appends cannot grow into it.
			buf = buf[:start+n]
			res.matches = buf[start : start+n : start+n]
		}
		evals += uint64(res.evals)
		members[i] = res
	}
	b.countAdd(&b.filterEvals, evals)
	// The members are one service: each after the first starts, on the
	// tape, where the one committed before it ended.
	var prevEnd time.Time
	for i := range members {
		if !members[i].expired {
			prevEnd = w.commitStages(&members[i], prevEnd)
		}
	}
	if u.carrier != nil {
		// Recycle-after-transmit: the batch is fully committed and nothing
		// downstream holds the carrier's slices.
		u.carrier.recycle()
	}
}

// frontStages runs the receive and match stages for one message, appending
// matches to dst. It returns ok=false for an expired message (already
// counted; nothing to commit). The returned result aliases dst. The clock
// is read only for the tape's dispatch start and a traced message's spans.
func (w *worker) frontStages(m *jms.Message, dst []*Subscriber) (result, bool) {
	d, b := w.d, w.d.b
	// Receive-stage work: waiting-time observation and expiration check.
	traced := d.tracer.Sampled(m.Header.TraceID)
	var start time.Time
	if tt := d.tt; (tt != nil || traced) && !m.EnqueuedAt.IsZero() {
		start = b.now()
		wait := start.Sub(m.EnqueuedAt)
		if tt != nil {
			tt.wait.Observe(wait)
		}
		if traced {
			// The per-message sample of the model's E[W].
			d.tracer.RecordSpan(m.Header.TraceID, trace.StageQueue, m.EnqueuedAt, wait)
		}
	}
	if !m.Header.Expiration.IsZero() && m.Expired(b.now()) {
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
	return result{m: m, matches: matches, nFilters: nFilters, evals: evals, start: start, traced: traced}, true
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
				Enqueued: res.m.EnqueuedAt, Start: start, End: end,
				Evals: res.evals, R: len(res.matches), BodyBytes: len(res.m.Body), Worker: w.id,
			})
		}
		tt.sojourn.Observe(end.Sub(res.m.EnqueuedAt))
	}
	if d.tracer == nil {
		return end
	}
	id := res.m.Header.TraceID
	sojourn := end.Sub(res.m.EnqueuedAt)
	if res.traced {
		d.tracer.FinishMessage(id, d.topic.Name(), res.nFilters, len(res.matches), sojourn)
	} else if id != 0 {
		d.tracer.OfferTail(id, d.topic.Name(), res.nFilters, len(res.matches),
			res.m.EnqueuedAt, res.start.Sub(res.m.EnqueuedAt), sojourn)
	}
	return end
}

// commitStages runs the replicate and transmit stages — R copies for R
// matching subscribers, Eq. 1's E[R]·t_tx — except that a run of matches
// sharing one connection's Outbox takes one copy and one put, and the
// connection sends it once for all of them. A traced message's per-copy
// timing windows tile the whole loop (each window ends where the next
// begins), so its replicate and transmit spans sum to the commit time.
// prevEnd and the returned commit end are traceCommit's.
func (w *worker) commitStages(res *result, prevEnd time.Time) time.Time {
	d := w.d
	m, matches := res.m, res.matches
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
		if len(matches) > 1 {
			copyMsg = d.st.replicator.Replicate(m)
			if res.traced {
				now := time.Now()
				replDur += now.Sub(prev)
				prev = now
			}
		}
		h.out.put(copyMsg, matches[i:j], m.Header.DeliveryMode, d.b.opts.SlowConsumer, d.stop)
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
		id := m.Header.TraceID
		if replDur > 0 {
			d.tracer.RecordSpan(id, trace.StageReplicate, start, replDur)
		}
		d.tracer.RecordSpan(id, trace.StageTransmit, start.Add(replDur), txDur)
	}
	return w.traceCommit(res, prevEnd)
}
