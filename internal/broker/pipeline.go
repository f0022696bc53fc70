package broker

import (
	"sync"
	"time"

	"repro/internal/jms"
	"repro/internal/topic"
	"repro/internal/trace"
)

// This file implements the staged dispatch pipeline shared by every engine.
// Per topic, a message flows through four stages:
//
//	Publish → d.in → receive → match → replicate → transmit
//
// which are exactly the terms of the paper's processing-time decomposition
// (Eq. 1): E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx. The stage
// implementations (Matcher, Replicator, Transmitter — see stage.go) are
// what distinguish the engines; the loop, the reorder buffer, the shutdown
// drain and the per-stage instrumentation live here, once.
//
// Two execution modes share the stage code:
//
//   - serial (shards == 1): a single goroutine runs all four stages inline
//     per message — the paper's single message-processing resource. The
//     faithful engine always runs serially.
//   - sharded (shards > 1): a sequencer stamps every accepted message with
//     a topic-local sequence number (channel-receive order, so consistent
//     with per-publisher FIFO), N workers run receive+match concurrently,
//     and a committer restores sequence order behind a reorder window
//     before running replicate+transmit — so subscribers observe
//     per-publisher FIFO order even though matching ran out of order.
//
// Shutdown is identical in both modes: closing d.stop makes the intake loop
// drain d.in completely (persistent semantics: no loss for accepted
// messages), the downstream stages finish the drained work, and d.done is
// closed after the last message was transmitted.

// pubUnit is one intake-queue entry: either a single message (m non-nil)
// or a batch accepted as one unit. A batch occupies a single in-flight
// slot — amortizing the push-back window over its messages is the point of
// batching — and fans out per message downstream, so the dispatch stages
// never see batches.
type pubUnit struct {
	m     *jms.Message
	batch []*jms.Message
	// carrier, when non-nil, is the pooled unit that owns batch and the
	// match-stage scratch; the committing goroutine recycles it after the
	// batch's last transmit (see carrier.go).
	carrier *BatchCarrier
}

// dispatcher holds one topic's pipeline channels: intake, stop signal, and
// completion signal.
type dispatcher struct {
	topic *topic.Topic
	in    chan pubUnit
	stop  chan struct{}
	done  chan struct{}
	// tt is the topic's waiting-time tracing state; nil unless
	// Options.WaitTiming (see tracing.go).
	tt *topicTimers
}

// pipeline is the per-topic staged dispatch machinery: the dispatcher
// channels plus the engine's stage configuration.
type pipeline struct {
	b      *Broker
	d      *dispatcher
	st     stageSet
	tx     Transmitter
	timers *stageTimers    // nil when Options.StageTiming is off
	tracer *trace.Recorder // nil when Options.Tracer is unset
	// runScratch backs commitBatchRuns' transmit runs. Only the pipeline's
	// single committing goroutine (serial loop or sharded committer) touches
	// it, and no callee retains it past the call.
	runScratch []*jms.Message
}

// seqMsg is a sequence-stamped unit on its way to a match worker: one
// message, or a whole batch occupying the contiguous sequence range
// [seq, seq+len(batch)). Keeping batches whole through the worker
// channels amortizes the channel handoffs the same way the batch
// amortized its in-flight slot.
type seqMsg struct {
	seq   uint64
	m     *jms.Message
	batch []*jms.Message
	// carrier accompanies batch through the worker to the committer; its
	// scratch backs the member results (see carrier.go).
	carrier *BatchCarrier
}

// seqResult is one matched message awaiting in-order commit.
type seqResult struct {
	seq      uint64
	m        *jms.Message
	matches  []*Subscriber
	nFilters int
	// evals is the number of filter evaluations performed by the match
	// stage; the caller folds it into the broker counter (batched units
	// fold all members in one update).
	evals   int
	expired bool
	// traced marks a head-sampled flight-recorder message: the pipeline
	// records per-stage spans for it. Decided once in frontStages so the
	// commit side never re-hashes the TraceID. It packs next to expired:
	// seqResult must not exceed the runtime's 128-byte map-element inline
	// threshold, or every insert into the committer's reorder buffer
	// allocates (pinned by TestSeqResultStaysInline).
	traced bool
	// matchDur is the wall time already attributed to the match stage,
	// subtracted from the loop total when the receive stage is computed as
	// the residual. Zero unless stage timing is on.
	matchDur time.Duration
	// start is the dispatch-start instant, the end of the message's
	// waiting time W and the origin of its service time B. Zero unless
	// waiting-time tracing or the flight recorder is on.
	start time.Time
	// batch carries the member results of a batched unit, in order; the
	// unit's seq is the first member's and it spans len(batch) sequence
	// slots. The per-message fields above are unused on a batch carrier.
	batch []seqResult
	// carrier is the pooled unit to recycle once the batch has committed;
	// nil for plain (non-carrier) batches.
	carrier *BatchCarrier
}

// span is the number of sequence slots the result occupies.
func (r seqResult) span() uint64 {
	if r.batch != nil {
		return uint64(len(r.batch))
	}
	return 1
}

// start launches the pipeline's goroutines.
func (p *pipeline) start() {
	if p.st.shards <= 1 {
		p.b.wg.Add(1)
		go p.runSerial()
		return
	}
	p.runSharded()
}

// intakeUnits runs fn for every publish unit accepted on d.in until
// d.stop closes, then drains the channel completely before returning —
// the shared accepted-message no-loss guarantee of both modes.
func (d *dispatcher) intakeUnits(fn func(pubUnit)) {
	for {
		select {
		case u := <-d.in:
			fn(u)
		case <-d.stop:
			for {
				select {
				case u := <-d.in:
					fn(u)
				default:
					return
				}
			}
		}
	}
}

// intake is the per-message view of intakeUnits: batched units unfold
// here, in slice order, so the caller sees a plain message sequence.
func (d *dispatcher) intake(fn func(*jms.Message)) {
	d.intakeUnits(func(u pubUnit) {
		if u.m != nil {
			fn(u.m)
			return
		}
		for _, m := range u.batch {
			fn(m)
		}
	})
}

// runSerial is the single-worker mode: all four stages inline, one message
// at a time. matches is the per-pipeline scratch slice — the loop is
// single-threaded, so reusing it across messages keeps the steady state of
// the faithful path allocation-free for the filter scan.
//
// Batched units take a dedicated sub-loop (when stage timing is off and
// the transmitter supports runs): members are matched against shared
// scratch, the filter-evaluation counter folds once per batch, and the
// commit coalesces same-subscriber runs through TransmitBatch — the serial
// analogue of the sharded committer's batch handling, and where the
// batched publish path earns its per-message amortization on a
// single-worker broker.
func (p *pipeline) runSerial() {
	defer p.b.wg.Done()
	defer close(p.d.done)
	mt := p.st.newMatcher()
	matches := make([]*Subscriber, 0, 16)
	single := func(m *jms.Message) {
		var t0 time.Time
		if p.timers != nil {
			t0 = time.Now()
		}
		res, ok := p.frontStages(mt, m, matches[:0])
		matches = res.matches[:0]
		p.b.countAdd(&p.b.filterEvals, uint64(res.evals))
		var commitDur time.Duration
		if ok {
			commitDur = p.commitStages(&res)
		}
		if p.timers != nil {
			// Receive stage = the full loop iteration minus what the other
			// stages accounted for: the fixed per-message cost (dequeue
			// bookkeeping, expiry check, counters, observers) the paper
			// calls t_rcv.
			p.timers.receive.Observe(time.Since(t0) - res.matchDur - commitDur)
		}
	}
	btx, hasBatchTx := p.tx.(batchTransmitter)
	// Per-batch scratch, reused across units: the loop is single-threaded
	// and commitBatchRuns finishes with the members before returning.
	var members []seqResult
	var buf []*Subscriber
	p.d.intakeUnits(func(u pubUnit) {
		if u.m != nil {
			single(u.m)
			return
		}
		if p.timers != nil || !hasBatchTx {
			for _, m := range u.batch {
				single(m)
			}
			if u.carrier != nil {
				u.carrier.recycle()
			}
			return
		}
		if cap(members) < len(u.batch) {
			members = make([]seqResult, len(u.batch))
			buf = make([]*Subscriber, 0, len(u.batch))
		}
		members = members[:len(u.batch)]
		buf = buf[:0]
		var evals uint64
		for i, m := range u.batch {
			start := len(buf)
			res, ok := p.frontStages(mt, m, buf[start:start:cap(buf)])
			res.expired = !ok
			got := res.matches
			if n := len(got); n > 0 && start+n <= cap(buf) && &got[0] == &buf[:start+1][start] {
				// Appended in place: advance buf past the segment and cap
				// the member's view so later appends cannot grow into it.
				buf = buf[:start+n]
				res.matches = buf[start : start+n : start+n]
			}
			evals += uint64(res.evals)
			members[i] = res
		}
		p.b.countAdd(&p.b.filterEvals, evals)
		p.commitBatchRuns(members, btx)
		if u.carrier != nil {
			// Recycle-after-transmit: the batch is fully committed and
			// nothing downstream holds the carrier's slices.
			u.carrier.recycle()
		}
	})
}

// runSharded is the multi-worker mode: sequencer → workers → committer.
func (p *pipeline) runSharded() {
	b := p.b
	workCh := make(chan seqMsg, b.opts.InFlight)
	commitCh := make(chan seqResult, b.opts.InFlight)

	// Sequencer: stamp accepted units in channel-receive order. A batch
	// claims a contiguous sequence range and travels whole, one channel
	// send for all its messages.
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		defer close(workCh)
		var seq uint64
		p.d.intakeUnits(func(u pubUnit) {
			if u.m != nil {
				workCh <- seqMsg{seq: seq, m: u.m}
				seq++
				return
			}
			workCh <- seqMsg{seq: seq, batch: u.batch, carrier: u.carrier}
			seq += uint64(len(u.batch))
		})
	}()

	// Match workers: receive + match stages, concurrently. Every sequence
	// number is forwarded to the committer, expired or not, so the reorder
	// window never stalls on a hole. A batched unit is matched member by
	// member on one worker and forwarded as one carrier result.
	var workers sync.WaitGroup
	workers.Add(p.st.shards)
	b.wg.Add(p.st.shards)
	for i := 0; i < p.st.shards; i++ {
		go func() {
			defer b.wg.Done()
			defer workers.Done()
			mt := p.st.newMatcher()
			front := func(m *jms.Message, seq uint64, dst []*Subscriber) seqResult {
				var t0 time.Time
				if p.timers != nil {
					t0 = time.Now()
				}
				res, ok := p.frontStages(mt, m, dst)
				if p.timers != nil {
					// Sharded receive residual: the worker's fixed
					// per-message cost (the committer's overhead is
					// concurrent and never on the per-message critical
					// path the way it is in serial mode).
					p.timers.receive.Observe(time.Since(t0) - res.matchDur)
				}
				res.seq = seq
				res.expired = !ok
				return res
			}
			for sm := range workCh {
				if sm.batch == nil {
					res := front(sm.m, sm.seq, nil)
					p.b.countAdd(&p.b.filterEvals, uint64(res.evals))
					commitCh <- res
					continue
				}
				// One result carrier and one matches backing array per
				// batch: member i's matches slice is the segment of buf
				// its Match call appended, capped so later members'
				// appends can never write into it. Filter evaluations
				// fold into the broker counter once per batch. A pooled
				// carrier brings its own scratch for both, so the
				// carrier path allocates nothing here.
				var members []seqResult
				var buf []*Subscriber
				if sm.carrier != nil {
					members = sm.carrier.memberScratch(len(sm.batch))
					buf = sm.carrier.subScratch(len(sm.batch))
				} else {
					members = make([]seqResult, len(sm.batch))
					buf = make([]*Subscriber, 0, len(sm.batch))
				}
				var evals uint64
				for i, m := range sm.batch {
					start := len(buf)
					members[i] = front(m, sm.seq+uint64(i), buf[start:start:cap(buf)])
					got := members[i].matches
					if n := len(got); n > 0 && start+n <= cap(buf) && &got[0] == &buf[:start+1][start] {
						// Appended in place: advance buf past the segment
						// and cap the member's view so later appends
						// cannot grow into it.
						buf = buf[:start+n]
						members[i].matches = buf[start : start+n : start+n]
					}
					// Otherwise Match outgrew the backing and got owns
					// fresh storage; buf is unchanged.
					evals += uint64(members[i].evals)
				}
				p.b.countAdd(&p.b.filterEvals, evals)
				commitCh <- seqResult{seq: sm.seq, batch: members, carrier: sm.carrier}
			}
		}()
	}
	go func() {
		workers.Wait()
		close(commitCh)
	}()

	// Committer: restore sequence order, then replicate + transmit.
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		defer close(p.d.done)
		pending := make(map[uint64]seqResult)
		var next uint64
		for res := range commitCh {
			if res.seq != next {
				pending[res.seq] = res
				continue
			}
			next += p.commitUnit(res)
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next += p.commitUnit(r)
			}
		}
	}()
}

// commitUnit commits one reordered unit — a single result or a whole
// batch, in member order — and returns the number of sequence slots it
// consumed. Units claim contiguous ranges and are committed whole, so
// `next` only ever lands on unit boundaries.
func (p *pipeline) commitUnit(res seqResult) uint64 {
	if res.batch == nil {
		p.commitOrdered(&res)
		return 1
	}
	span := res.span()
	if p.timers == nil {
		if btx, ok := p.tx.(batchTransmitter); ok {
			p.commitBatchRuns(res.batch, btx)
			if res.carrier != nil {
				// Recycle-after-transmit: the last member is committed and
				// nothing downstream holds the carrier's slices.
				res.carrier.recycle()
			}
			return span
		}
	}
	for i := range res.batch {
		p.commitOrdered(&res.batch[i])
	}
	if res.carrier != nil {
		res.carrier.recycle()
	}
	return span
}

// commitBatchRuns commits a batch's members in order, coalescing
// consecutive single-subscriber deliveries to the same handle and
// delivery mode into one TransmitBatch run (one send lock, one counter
// update). Members outside the pattern — expired, fanned out to several
// subscribers, or switching handles — fall back to the per-message path,
// preserving order throughout.
func (p *pipeline) commitBatchRuns(members []seqResult, btx batchTransmitter) {
	if cap(p.runScratch) < len(members) {
		p.runScratch = make([]*jms.Message, 0, len(members))
	}
	run := p.runScratch[:0]
	for i := 0; i < len(members); {
		r := &members[i]
		if r.expired || len(r.matches) != 1 {
			p.commitOrdered(r)
			i++
			continue
		}
		h := r.matches[0]
		mode := r.m.Header.DeliveryMode
		run = run[:0]
		j := i
		anyTraced := false
		for j < len(members) {
			rj := &members[j]
			if rj.expired || len(rj.matches) != 1 || rj.matches[0] != h ||
				rj.m.Header.DeliveryMode != mode {
				break
			}
			anyTraced = anyTraced || rj.traced
			run = append(run, rj.m)
			j++
		}
		var t0 time.Time
		if anyTraced {
			t0 = time.Now()
		}
		btx.TransmitBatch(h, run, mode)
		if anyTraced {
			// The run transmits as one unit; each traced member gets an
			// equal share of its wall time as the transmit span.
			share := time.Since(t0) / time.Duration(len(run))
			for k := i; k < j; k++ {
				if members[k].traced {
					p.tracer.RecordSpan(members[k].m.Header.TraceID, trace.StageTransmit, t0, share)
				}
			}
		}
		for k := i; k < j; k++ {
			p.traceCommit(&members[k])
		}
		i = j
	}
	p.runScratch = run[:0]
}

// frontStages runs the receive and match stages for one message, appending
// matches to dst. It returns ok=false for an expired message (already
// counted; nothing to commit). The returned result aliases dst. The match
// stage's wall time is observed here and carried in the result; the
// receive stage is observed by the caller as the residual of the full loop
// iteration, so it absorbs every fixed per-message cost — which is exactly
// what the paper's throughput-derived t_rcv measures.
func (p *pipeline) frontStages(mt Matcher, m *jms.Message, dst []*Subscriber) (seqResult, bool) {
	b := p.b
	// Receive-stage work: waiting-time observation and expiration check.
	traced := p.tracer.Sampled(m.Header.TraceID)
	var start time.Time
	if tt := p.d.tt; (tt != nil || traced) && !m.EnqueuedAt.IsZero() {
		start = b.now()
		w := start.Sub(m.EnqueuedAt)
		if tt != nil {
			tt.wait.Observe(w)
			tt.waitM.Observe(w)
		}
		if traced {
			// The per-message sample of the model's E[W].
			p.tracer.RecordSpan(m.Header.TraceID, trace.StageQueue, m.EnqueuedAt, w)
		}
	}
	if !m.Header.Expiration.IsZero() && m.Expired(b.now()) {
		b.countAdd(&b.expired, 1)
		return seqResult{m: m, matches: dst}, false
	}

	// Match stage: n_fltr·t_fltr.
	var t0 time.Time
	if p.timers != nil || traced {
		t0 = time.Now()
	}
	matches, nFilters, evals := mt.Match(p.d.topic, m, dst)
	var matchDur time.Duration
	if p.timers != nil || traced {
		matchDur = time.Since(t0)
		if p.timers != nil {
			p.timers.match.Observe(matchDur)
		}
		if traced {
			p.tracer.RecordSpan(m.Header.TraceID, trace.StageMatch, t0, matchDur)
		}
	}
	return seqResult{m: m, matches: matches, nFilters: nFilters, evals: evals, matchDur: matchDur, start: start, traced: traced}, true
}

// traceCommit records the service and sojourn times of one committed
// message — the end of the spans opened at enqueue and dispatch start —
// appends it to the topic's tape once one has been taken, and closes out
// its flight record: head-sampled messages get their covariates (n_fltr,
// R) and sojourn attached, unsampled ones are offered to the recorder's
// tail keeper as skeleton traces when slow enough.
func (p *pipeline) traceCommit(res *seqResult) {
	if res.start.IsZero() {
		return
	}
	end := p.b.now()
	if tt := p.d.tt; tt != nil {
		if tp := tt.tape.Load(); tp != nil {
			tp.record(TapeEntry{
				Enqueued: res.m.EnqueuedAt, Start: res.start, End: end,
				Evals: res.evals, R: len(res.matches), BodyBytes: len(res.m.Body),
			})
		}
		tt.serviceM.Observe(end.Sub(res.start))
		tt.sojourn.Observe(end.Sub(res.m.EnqueuedAt))
	}
	if p.tracer == nil {
		return
	}
	id := res.m.Header.TraceID
	sojourn := end.Sub(res.m.EnqueuedAt)
	if res.traced {
		p.tracer.FinishMessage(id, p.d.topic.Name(), res.nFilters, len(res.matches), sojourn)
	} else if id != 0 {
		p.tracer.OfferTail(id, p.d.topic.Name(), res.nFilters, len(res.matches),
			res.m.EnqueuedAt, res.start.Sub(res.m.EnqueuedAt), sojourn)
	}
}

// commitOrdered is the committer's per-result step: expired results were
// counted in frontStages and only occupy a sequence slot.
func (p *pipeline) commitOrdered(res *seqResult) {
	if res.expired {
		return
	}
	p.commitStages(res)
}

// commitStages runs the replicate and transmit stages — R copies for R
// matching subscribers, Eq. 1's E[R]·t_tx. It returns its own wall time so the serial loop can compute
// the receive-stage residual. The per-copy timing windows tile the whole
// loop (each window ends where the next begins), so clock-read and loop
// overhead is attributed to the per-replica stages it belongs to instead
// of leaking into the per-message residual and faking an R-dependent
// t_rcv.
func (p *pipeline) commitStages(res *seqResult) time.Duration {
	m := res.m
	if p.timers == nil && !res.traced {
		for _, h := range res.matches {
			copyMsg := m
			if len(res.matches) > 1 {
				copyMsg = p.st.replicator.Replicate(m)
			}
			p.tx.Transmit(h, copyMsg, m.Header.DeliveryMode)
		}
		p.traceCommit(res)
		return 0
	}
	start := time.Now()
	prev := start
	var replDur, txDur time.Duration
	for _, h := range res.matches {
		copyMsg := m
		if len(res.matches) > 1 {
			copyMsg = p.st.replicator.Replicate(m)
			now := time.Now()
			d := now.Sub(prev)
			replDur += d
			if p.timers != nil {
				p.timers.replicate.Observe(d)
			}
			prev = now
		}
		p.tx.Transmit(h, copyMsg, m.Header.DeliveryMode)
		now := time.Now()
		d := now.Sub(prev)
		txDur += d
		if p.timers != nil {
			p.timers.transmit.Observe(d)
		}
		prev = now
	}
	if res.traced {
		// Aggregated per-stage spans: exact summed durations; the
		// replicate/transmit interleaving is flattened so the two spans
		// tile the commit window.
		id := m.Header.TraceID
		if replDur > 0 {
			p.tracer.RecordSpan(id, trace.StageReplicate, start, replDur)
		}
		p.tracer.RecordSpan(id, trace.StageTransmit, start.Add(replDur), txDur)
	}
	p.traceCommit(res)
	return time.Since(start)
}
