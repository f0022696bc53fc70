package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/jms"
)

const (
	// satLanes x satBatch is the closed-loop window of the saturated phase:
	// 8 outstanding PublishBatch calls of 16 messages on the one publisher
	// connection.
	satLanes = 8
	satBatch = 16
	// deliveryWindow bounds the messages sent but not yet delivered in the
	// saturated phase.
	deliveryWindow = 1024
	// pacedLanes bounds the outstanding per-message Publish calls of a paced
	// phase.
	pacedLanes = 256
	// latencyLimit is the service objective of the paced phases: a message
	// delivered later than this counts as failed. It is far above any p99
	// measured here because it has to clear what the sandbox does to the whole
	// process — vCPU steal stalls of 60 ms were observed — so that a failed
	// operation means the broker, not the host.
	latencyLimit = 250 * time.Millisecond
	// drainTimeout bounds the wait for deliveries after a phase's last ack;
	// what has not arrived by then is counted as not delivered.
	drainTimeout = 3 * time.Second
)

func stampSum(due, laneID uint64) uint16 {
	x := (due ^ laneID*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	return uint16(x >> 48)
}

// putStamp writes the generator's stamp into the first 16 body bytes: the
// due time (ns since the generator's epoch), then lane<<56 | id<<16 | a
// checksum over both words. IDs stay below 2^40.
func putStamp(body []byte, dueNs int64, lane uint8, id uint64) {
	laneID := uint64(lane)<<56 | id<<16
	binary.BigEndian.PutUint64(body, uint64(dueNs))
	binary.BigEndian.PutUint64(body[8:], laneID|uint64(stampSum(uint64(dueNs), laneID)))
}

func readStamp(body []byte) (dueNs int64, lane uint8, id uint64, ok bool) {
	due := binary.BigEndian.Uint64(body)
	w := binary.BigEndian.Uint64(body[8:])
	laneID := w &^ 0xFFFF
	return int64(due), uint8(w >> 56), laneID << 8 >> 24, uint16(w) == stampSum(due, laneID)
}

// latencySink collects one paced phase's delivery latencies, bucketed into
// windows by due time.
type latencySink struct {
	mu       sync.Mutex
	startNs  int64
	windowNs int64
	windows  [][]uint32 // latency in ns, capped at 2^32 ns, far above latencyLimit
	late     uint64
}

func (s *latencySink) add(dueNs, latNs int64) {
	s.mu.Lock()
	if latNs > int64(latencyLimit) {
		s.late++
	}
	if i := (dueNs - s.startNs) / s.windowNs; i >= 0 && int(i) < len(s.windows) {
		s.windows[i] = append(s.windows[i], uint32(min(latNs, math.MaxUint32)))
	}
	s.mu.Unlock()
}

// generator drives one stack: it owns the publishing lanes, the message IDs
// and the consumer that checks and times every delivery.
type generator struct {
	w  *workload
	in inputs
	st *stack
	t0 time.Time // epoch of all due times

	nextID atomic.Uint64
	// sent counts messages handed to the client, acked those the broker
	// acknowledged; both are cumulative over warm-up and all phases.
	sent, acked atomic.Uint64

	// Consumer state. delivered counts messages seen on all R matching
	// subscriptions; lastDoneNs is when the latest of them completed.
	delivered  atomic.Uint64
	lastDoneNs atomic.Int64
	violations atomic.Uint64
	sink       atomic.Pointer[latencySink]
	perSub     []uint64 // deliveries per matching subscription (consumer-owned until stopped)
	stop, done chan struct{}
	// progress is pinged (never blocking) after each completed message, so
	// drain can wait for deliveries without polling on a timer.
	progress chan struct{}
	// credits holds one token per saturated-phase batch sent and not yet
	// delivered; its capacity is the delivery window.
	credits chan struct{}
}

func newGenerator(w *workload, in inputs, st *stack) *generator {
	g := &generator{
		w: w, in: in, st: st, t0: time.Now(),
		perSub: make([]uint64, len(st.matching)),
		stop:   make(chan struct{}), done: make(chan struct{}),
		progress: make(chan struct{}, 1),
		credits:  make(chan struct{}, deliveryWindow/satBatch),
	}
	go g.consume()
	return g
}

func (g *generator) now() int64 { return int64(time.Since(g.t0)) }

// consume is the one goroutine that receives every delivery. It takes one
// message from each matching subscription in turn — every message reaches
// all R of them, so the rotation never starves — verifies it, and completes
// a message when its R-th copy has arrived: latency is taken at the last
// copy.
func (g *generator) consume() {
	defer close(g.done)
	r := len(g.st.matching)
	// copies counts arrivals per message ID, indexed modulo a ring far
	// larger than any window of messages in flight.
	const ring = 1 << 20
	copies := make([]uint8, ring)
	last := make([][256]uint64, r) // per subscription and lane: highest ID seen + 1
	for i := 0; ; i = (i + 1) % r {
		var m *jms.Message
		select {
		case m = <-g.st.matching[i].Chan():
		case <-g.stop:
			return
		}
		if m == nil { // subscription closed under us
			g.violations.Add(1)
			return
		}
		g.perSub[i]++
		if len(m.Body) != g.w.bodyBytes || m.Header.CorrelationID != g.in.corrID {
			g.violations.Add(1)
			continue
		}
		due, lane, id, ok := readStamp(m.Body)
		if !ok {
			g.violations.Add(1)
			continue
		}
		// Per-publisher FIFO: a lane has one publish call outstanding at a
		// time, so its IDs must arrive strictly increasing.
		if id < last[i][lane] {
			g.violations.Add(1)
		}
		last[i][lane] = id + 1
		c := &copies[id%ring]
		if *c++; int(*c) < r {
			continue
		}
		*c = 0
		now := g.now()
		if s := g.sink.Load(); s != nil {
			s.add(due, now-due)
		}
		g.lastDoneNs.Store(now)
		delivered := g.delivered.Add(1)
		select {
		case g.progress <- struct{}{}:
		default:
		}
		if delivered%satBatch == 0 {
			// A batch's worth delivered: return a token if the saturated
			// phase holds any (the paced phases take none).
			select {
			case <-g.credits:
			default:
			}
		}
	}
}

// drain waits until every acknowledged message has been delivered to all R
// subscriptions, or drainTimeout passes, and returns how many are missing.
func (g *generator) drain() uint64 {
	timeout := time.After(drainTimeout)
	for {
		missing := int64(g.acked.Load()) - int64(g.delivered.Load())
		if missing <= 0 {
			return 0
		}
		select {
		case <-g.progress:
		case <-timeout:
			return uint64(missing)
		}
	}
}

// phaseCounts is what every phase reports to the correctness gate.
type phaseCounts struct {
	attempted, failed uint64
	// why breaks failed down for the report: publish errors, scheduled but
	// never issued, acknowledged but not delivered, delivered past the limit.
	why string
}

// satResult is the outcome of one saturated phase.
type satResult struct {
	phaseCounts
	delivered  uint64
	capacity   float64 // messages acked and delivered to all R, per second
	mallocs    uint64
	allocBytes uint64
	heapLiveMB float64
}

// saturated runs the closed loop for d: satLanes lanes, each re-stamping and
// publishing its own batch of satBatch messages as soon as the previous call
// is acknowledged. The broker acknowledges at admission, which can run tens
// of thousands of messages ahead of delivery (one in-flight slot per batch),
// so a lane also takes a delivery credit per batch: at most deliveryWindow
// messages are sent and not yet delivered to all R subscriptions. The window
// is deep enough to keep every stage busy and shallow enough to drain at
// once, so the phase measures delivered throughput and leaves no backlog.
func (g *generator) saturated(d time.Duration) satResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent0, acked0, delivered0 := g.sent.Load(), g.acked.Load(), g.delivered.Load()
	start := g.now()
	deadline := start + int64(d)
	// The previous phase has drained, so any token left is a rounding
	// leftover of the consumer's count.
	for len(g.credits) > 0 {
		<-g.credits
	}
	// stuck fires only if deliveries stop and the credits never come back.
	stuck, cancel := context.WithTimeout(context.Background(), d+drainTimeout)
	defer cancel()

	var wg sync.WaitGroup
	for lane := 0; lane < satLanes; lane++ {
		wg.Add(1)
		go func(lane uint8) {
			defer wg.Done()
			msgs := make([]*jms.Message, satBatch)
			for i := range msgs {
				msgs[i] = g.in.newMessage()
			}
			for g.now() < deadline {
				select {
				case g.credits <- struct{}{}:
				case <-stuck.Done():
					return // deliveries stopped coming; the drain below counts them
				}
				now := g.now()
				for _, m := range msgs {
					m.Header.TraceID = 0 // let the client stamp a fresh one
					putStamp(m.Body, now, lane, g.nextID.Add(1))
				}
				g.sent.Add(satBatch)
				if err := g.st.pub.PublishBatch(context.Background(), msgs); err != nil {
					return
				}
				g.acked.Add(satBatch)
			}
		}(uint8(lane))
	}
	wg.Wait()
	missing := g.drain()
	end := g.lastDoneNs.Load()
	runtime.ReadMemStats(&after)

	res := satResult{delivered: g.delivered.Load() - delivered0}
	res.attempted = g.sent.Load() - sent0
	unacked := res.attempted - (g.acked.Load() - acked0)
	res.failed = unacked + missing
	res.why = fmt.Sprintf("saturated: %d publish errors, %d not delivered", unacked, missing)
	if end > start {
		res.capacity = float64(res.delivered) / (float64(end-start) / 1e9)
	}
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	// Twice: the first cycle only moves the sync.Pool caches to their victim
	// slot, the second drops them, leaving what the population really holds.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.heapLiveMB = float64(after.HeapAlloc) / (1 << 20)
	return res
}

// pacedResult is the outcome of one paced phase.
type pacedResult struct {
	phaseCounts
	delivered            uint64
	p50, p99, mean       float64 // us: median over windows of the per-window statistic
	samples              int
	cpuUserUs, cpuSysUs  float64 // process CPU over the phase per delivered message
	lagP99Us             float64
	achievedRatio        float64
	outstandingPeak      int64
	unsustained, invalid bool
}

// status names the generator's own verdict on the phase: latencies from an
// invalid or unsustained phase were caused by the generator or by a growing
// backlog, not by the offered rate.
func (p pacedResult) status() string {
	switch {
	case p.invalid:
		return "invalid"
	case p.unsustained:
		return "unsustained"
	}
	return "valid"
}

// setTimerSlack asks the kernel to round this thread's timers to 1 us rather
// than the default 50 us. Best effort: with the default the pacer only lags
// a little more, and reports it.
func setTimerSlack() {
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}

// cpuTime is the process's CPU time so far, split into user and system.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// paced runs the open loop for d at rate msgs/s: Poisson arrivals on an
// absolute-deadline schedule, each published by a per-message Publish on one
// of pacedLanes lanes. Every message carries its due time, so a pacer or
// broker stall is charged to the messages it delayed (no coordinated
// omission).
func (g *generator) paced(rate float64, d time.Duration, schedule *rand.Rand) pacedResult {
	// The pacer sleeps in nanosleep on its own thread: time.Sleep on an
	// otherwise idle runtime wakes through epoll_wait, whose millisecond
	// granularity would put ~1 ms of generator lag into every latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	// Windows of about a second, but never fewer than a thousand arrivals:
	// a p99 needs ten samples beyond it.
	nWindows := max(1, min(int(d.Round(time.Second)/time.Second), int(rate*d.Seconds()/1000)))
	start := g.now()
	sink := &latencySink{startNs: start, windowNs: int64(d) / int64(nWindows), windows: make([][]uint32, nWindows)}
	g.sink.Store(sink)
	defer g.sink.Store(nil)
	sent0, acked0, delivered0 := g.sent.Load(), g.acked.Load(), g.delivered.Load()
	user0, sys0 := cpuTime()

	// The queue is far deeper than pacedLanes so the pacer never blocks on
	// busy lanes: the loop stays open and the backlog shows as latency.
	due := make(chan int64, 1<<16)
	var wg sync.WaitGroup
	for lane := 0; lane < pacedLanes; lane++ {
		wg.Add(1)
		go func(lane uint8) {
			defer wg.Done()
			m := g.in.newMessage()
			for at := range due {
				m.Header.TraceID = 0
				putStamp(m.Body, at, lane, g.nextID.Add(1))
				g.sent.Add(1)
				if err := g.st.pub.Publish(context.Background(), m); err != nil {
					continue
				}
				g.acked.Add(1)
			}
		}(uint8(lane))
	}

	var (
		lags               = make([]uint32, 0, int(rate*d.Seconds()*1.1))
		issued, overflowed uint64
		peak               int64
		backlog            [4]struct{ sum, n int64 } // outstanding per quarter of the phase
	)
	at := float64(start)
	for {
		at += schedule.ExpFloat64() / rate * 1e9
		if at >= float64(start)+float64(d) {
			break
		}
		now := g.now()
		for wait := int64(at) - now; wait > 0; wait = int64(at) - now {
			// Nanosleep returns early with EINTR on the runtime's
			// preemption signals; sleep again until the arrival is due.
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil)
			now = g.now()
		}
		select {
		case due <- int64(at):
			issued++
			lags = append(lags, uint32(min(now-int64(at), math.MaxUint32)))
		default:
			overflowed++
		}
		out := int64(issued) - int64(g.delivered.Load()-delivered0)
		peak = max(peak, out)
		q := &backlog[min(3, (now-start)*4/int64(d))]
		q.sum, q.n = q.sum+out, q.n+1
	}
	issuing := g.now() - start
	close(due)
	wg.Wait()
	missing := g.drain()
	user, sys := cpuTime()

	res := pacedResult{delivered: g.delivered.Load() - delivered0, outstandingPeak: peak}
	res.attempted = issued + overflowed
	unacked := (g.sent.Load() - sent0) - (g.acked.Load() - acked0)

	sink.mu.Lock()
	res.failed = overflowed + unacked + missing + sink.late
	res.why = fmt.Sprintf("paced at %.0f/s: %d publish errors, %d never issued, %d not delivered, %d later than %v", rate, unacked, overflowed, missing, sink.late, latencyLimit)
	var p50s, p99s, means []float64
	for _, w := range sink.windows {
		if len(w) == 0 {
			continue
		}
		res.samples += len(w)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		var sum float64
		for _, v := range w {
			sum += float64(v)
		}
		p50s = append(p50s, float64(w[len(w)/2])/1e3)
		p99s = append(p99s, float64(w[len(w)*99/100])/1e3)
		means = append(means, sum/float64(len(w))/1e3)
	}
	sink.mu.Unlock()
	res.p50, res.p99, res.mean = median(p50s), median(p99s), median(means)
	if res.delivered > 0 {
		res.cpuUserUs = float64(user-user0) / 1e3 / float64(res.delivered)
		res.cpuSysUs = float64(sys-sys0) / 1e3 / float64(res.delivered)
	}

	// Generator self-check.
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if len(lags) > 0 {
		res.lagP99Us = float64(lags[len(lags)*99/100]) / 1e3
	}
	// Every scheduled arrival is issued, however late; a generator that
	// cannot keep the schedule shows as issuing for longer than the phase.
	res.achievedRatio = float64(issued) / float64(max(1, res.attempted)) * float64(d) / float64(max(int64(d), issuing))
	res.invalid = res.lagP99Us > 1000 || res.achievedRatio < 0.99
	if q3, q4 := backlog[2], backlog[3]; q3.n > 0 && q4.n > 0 {
		// Still growing over the second half: the last quarter's mean
		// backlog stands clear of the third's.
		res.unsustained = float64(q4.sum)/float64(q4.n) > 1.5*float64(q3.sum)/float64(q3.n)+32
	}
	return res
}

// roundTrips times single calls on an otherwise idle stack for about d (at
// least 50 calls) and returns the median in microseconds and the number of
// calls. batch selects PublishBatch(satBatch) over Publish.
func (g *generator) roundTrips(d time.Duration, batch bool) (float64, int, phaseCounts) {
	msgs := make([]*jms.Message, 1)
	if batch {
		msgs = make([]*jms.Message, satBatch)
	}
	for i := range msgs {
		msgs[i] = g.in.newMessage()
	}
	sent0, acked0 := g.sent.Load(), g.acked.Load()
	var missing uint64
	var us []float64
	for end := g.now() + int64(d); len(us) < 50 || g.now() < end; {
		now := g.now()
		for _, m := range msgs {
			m.Header.TraceID = 0
			putStamp(m.Body, now, 0, g.nextID.Add(1))
		}
		g.sent.Add(uint64(len(msgs)))
		t := time.Now()
		if err := g.st.pub.PublishBatch(context.Background(), msgs); err != nil {
			break
		}
		us = append(us, float64(time.Since(t))/1e3)
		g.acked.Add(uint64(len(msgs)))
		// The broker is to be idle at the next call: wait out this one's
		// deliveries, untimed.
		if missing += g.drain(); missing > 0 {
			break
		}
	}
	attempted := g.sent.Load() - sent0
	unacked := attempted - (g.acked.Load() - acked0)
	return median(us), len(us), phaseCounts{
		attempted: attempted, failed: unacked + missing,
		why: fmt.Sprintf("round trips: %d publish errors, %d not delivered", unacked, missing),
	}
}

// finish stops the consumer and runs the end-of-run integrity gate: each
// matching subscription received exactly the acknowledged publishes, the
// non-matching ones nothing, and no broker dropped a delivery. It returns
// the number of violations, the consumer's included.
func (g *generator) finish() (violations uint64, detail string) {
	close(g.stop)
	<-g.done
	violations = g.violations.Load()
	if violations > 0 {
		detail = fmt.Sprintf("%d malformed or out-of-order deliveries; ", violations)
	}
	acked := g.acked.Load()
	for i, n := range g.perSub {
		if n != acked {
			violations++
			detail += fmt.Sprintf("matching subscription %d received %d of %d acked; ", i, n, acked)
		}
	}
	stray := 0
	for _, sub := range g.st.idle {
		stray += len(sub.Chan())
	}
	if stray > 0 {
		violations += uint64(stray)
		detail += fmt.Sprintf("%d deliveries on non-matching subscriptions; ", stray)
	}
	for i, br := range g.st.brokers {
		if s := br.Stats(); s.Dropped+s.SlowDropped+s.Expired > 0 {
			violations += s.Dropped + s.SlowDropped + s.Expired
			detail += fmt.Sprintf("broker %d dropped %d, slow-dropped %d, expired %d; ", i, s.Dropped, s.SlowDropped, s.Expired)
		}
	}
	return violations, detail
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
