// Package trace is the per-message flight recorder: stage-level spans
// keyed by the wire protocol's Header.TraceID, collected from every layer
// the message crosses (frame ingress, arena decode, enqueue wait, filter
// match, replicate, transmit handoff, delivery encode, writer-queue wait,
// writev syscall) and retained in per-shard lock-free ring buffers.
//
// Two retention policies run side by side, mirroring the head/tail split
// in distributed-tracing practice:
//
//   - Head sampling: a deterministic hash of the TraceID admits 1-in-N
//     messages to full span recording. Every layer evaluates the same pure
//     predicate (Sampled), so wire, broker and egress agree on which
//     messages to instrument with no shared per-message state.
//   - Tail retention: the slowest-K messages per rotation window are always
//     kept, even when head sampling skipped them. Unsampled messages offer
//     a cheap "skeleton" trace (enqueue wait + total sojourn only, from the
//     timestamps the broker already takes) gated by an atomic threshold
//     compare, so the common fast message pays one load and one branch.
//
// The recorder is also the measurement substrate for the model loop: the
// per-stage windowed accumulators decompose observed sojourn into
// W_obs ≈ W_queue + Σ stage residencies (exported as jms_trace_stage_*),
// and completed traces convert to per-message internal/fit observations so
// the Eq. 1 constants can be fitted from ground truth rather than
// aggregate regression.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Stage identifies one lifecycle edge of a message's path through the
// broker. The order is pipeline order; Queue is the Eq. 4 waiting time W,
// Match..Transmit are the broker service stages, Encode..EgressWrite are
// the egress path that the socket-level t_tx measurement covers and the
// dispatch-level one does not (ROADMAP item 3's gap).
type Stage uint8

const (
	// StageIngress is the FrameReader read: from entering fr.Next to the
	// frame being fully buffered. It includes the socket wait for the
	// client's bytes, so it is arrival-side and excluded from the sojourn
	// decomposition; it is reported for end-to-end display only.
	StageIngress Stage = iota
	// StageDecode is arena materialization: wire bytes → *jms.Message.
	StageDecode
	// StageQueue is the enqueue wait: enqueue stamp → dispatch start. This is
	// the per-message sample of the model's E[W].
	StageQueue
	// StageMatch is the filter scan over the topic's subscriptions.
	StageMatch
	// StageReplicate is per-replica message copying (R > 1 only).
	StageReplicate
	// StageTransmit is the handoff into subscriber delivery queues.
	StageTransmit
	// StageEncode is the delivery frame encode in the connection's writer.
	StageEncode
	// StageEgressQueue is the wait in the connection writer's queue:
	// submit → writev start.
	StageEgressQueue
	// StageEgressWrite is this frame's share of the writev syscall
	// (syscall duration / frames coalesced) — the per-frame quantity
	// WireStats' WriteNanos / FramesOut gives in aggregate.
	StageEgressWrite

	numStages
)

var stageNames = [numStages]string{
	"ingress", "decode", "queue", "match", "replicate",
	"transmit", "encode", "egress_queue", "egress_write",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Layer reports which plane records the stage: "wire" for socket-side
// stages, "broker" for dispatch-side ones.
func (s Stage) Layer() string {
	switch s {
	case StageQueue, StageMatch, StageReplicate, StageTransmit:
		return "broker"
	}
	return "wire"
}

// Stages enumerates all stage values in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Span is one recorded stage residency.
type Span struct {
	Stage   Stage
	StartNs int64 // wall clock, unix nanoseconds
	DurNs   int64
}

// maxSpans bounds one trace's span count (a message delivered to R
// subscribers records up to 3 egress-side spans per replica). Overflow
// spans are counted and dropped, never reallocated.
const maxSpans = 32

// Trace is a completed (or snapshotted) flight record for one message.
type Trace struct {
	ID       uint64
	Topic    string
	NFilters int  // filters scanned at match time (Eq. 1 n_fltr)
	R        int  // matched subscribers (Eq. 1 E[R])
	Skeleton bool // tail-retained without head sampling: queue+total only
	Complete bool // committed (false: snapshotted while still active)
	// SojournNs is enqueue → dispatch commit as the broker observed it;
	// 0 until the broker finishes the message.
	SojournNs int64
	Spans     []Span
}

// StartNs is the earliest span start (0 when empty).
func (t *Trace) StartNs() int64 {
	s := int64(0)
	for _, sp := range t.Spans {
		if s == 0 || sp.StartNs < s {
			s = sp.StartNs
		}
	}
	return s
}

// TotalNs is the trace's headline duration: the broker sojourn when known
// (the model's W+B), otherwise the span extent.
func (t *Trace) TotalNs() int64 {
	if t.SojournNs > 0 {
		return t.SojournNs
	}
	start, end := int64(0), int64(0)
	for _, sp := range t.Spans {
		if start == 0 || sp.StartNs < start {
			start = sp.StartNs
		}
		if e := sp.StartNs + sp.DurNs; e > end {
			end = e
		}
	}
	if start == 0 {
		return 0
	}
	return end - start
}

// StageNs sums the residency recorded for one stage.
func (t *Trace) StageNs(s Stage) int64 {
	var n int64
	for _, sp := range t.Spans {
		if sp.Stage == s {
			n += sp.DurNs
		}
	}
	return n
}

// Config parameterizes a Recorder. Zero values take defaults.
type Config struct {
	// SampleEvery is the head-sampling rate: 1-in-N traced messages get
	// full span recording (<= 1 records every message with a nonzero
	// TraceID; the deterministic hash keeps all layers in agreement).
	SampleEvery int
	// RingSize is the per-shard completed-trace ring capacity (power of
	// two; default 256).
	RingSize int
	// TailKeep is the slowest-N retention per window (default 16).
	TailKeep int
	// Window is the tail-retention rotation period (default 10s).
	Window time.Duration
	// FinalizeAfter is how long a trace must be idle (no new spans) before
	// the sweeper commits it. No single layer knows when a trace is done —
	// egress spans land after the broker's commit — so completion is
	// quiescence (default 250ms).
	FinalizeAfter time.Duration
	// Shards is the number of active-table/ring shards (power of two;
	// default 8).
	Shards int
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	c.RingSize = ceilPow2(c.RingSize)
	if c.TailKeep <= 0 {
		c.TailKeep = 16
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.FinalizeAfter <= 0 {
		c.FinalizeAfter = 250 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	c.Shards = ceilPow2(c.Shards)
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// active is a trace under construction. Entries live in a shard's map
// until the sweeper sees them idle for FinalizeAfter (or Flush forces
// commit) and are pooled across messages.
type active struct {
	id       uint64
	topic    string
	nFilters int
	r        int
	sojourn  int64
	lastNs   int64 // last span end, for idle detection
	n        int
	spans    [maxSpans]Span
}

var activePool = sync.Pool{New: func() any { return new(active) }}

// shard is one slice of the recorder: a mutex-guarded active table plus a
// lock-free ring of committed traces. Ring writers atomically claim a slot
// and Store an immutable *Trace; /trace readers Load concurrently with no
// coordination.
type shard struct {
	mu     sync.Mutex
	active map[uint64]*active

	pos  atomic.Uint64
	ring []atomic.Pointer[Trace]
}

// stageAcc is one stage's cumulative residency accumulator, updated on
// every RecordSpan so the windowed decomposition is live without waiting
// for trace commit.
type stageAcc struct {
	count atomic.Uint64
	sum   atomic.Uint64 // nanoseconds
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use and nil-receiver safe, so call sites can hold an optional *Recorder
// without guarding.
type Recorder struct {
	cfg       Config
	shardMask uint64
	shards    []shard

	stages      [numStages]stageAcc
	sojournCnt  atomic.Uint64
	sojournSum  atomic.Uint64
	started     atomic.Uint64
	committed   atomic.Uint64
	tailKept    atomic.Uint64
	spanDropped atomic.Uint64

	// exemplars[i] holds the most recent trace ID whose total fell into
	// the i-th log2 latency bucket — the same bucket geometry as the
	// wait/sojourn histograms, so /metrics buckets link to /trace/{id}.
	exemplars [metrics.HistogramBuckets]atomic.Uint64

	tail tailKeeper

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a Recorder and starts its finalization sweeper. Close stops
// it.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:       cfg,
		shardMask: uint64(cfg.Shards - 1),
		shards:    make([]shard, cfg.Shards),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i := range r.shards {
		r.shards[i].active = make(map[uint64]*active)
		r.shards[i].ring = make([]atomic.Pointer[Trace], cfg.RingSize)
	}
	r.tail.keep = cfg.TailKeep
	r.tail.window = cfg.Window
	r.tail.curStart = cfg.Clock()
	go r.sweep()
	return r
}

// Close stops the sweeper and commits everything still active.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.Flush()
}

// Enabled reports whether the recorder exists (nil-safe guard for call
// sites holding an optional *Recorder).
func (r *Recorder) Enabled() bool { return r != nil }

// hash64 is SplitMix64's finalizer: a cheap, well-mixed permutation of
// the trace ID used for both sampling and shard selection.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Sampled reports whether a message with this TraceID is head-sampled.
// It is a pure function of the ID, so every layer — wire ingress, broker
// pipeline, egress writer — independently agrees with no shared state.
func (r *Recorder) Sampled(id uint64) bool {
	if r == nil || id == 0 {
		return false
	}
	if r.cfg.SampleEvery <= 1 {
		return true
	}
	return hash64(id)%uint64(r.cfg.SampleEvery) == 0
}

func (r *Recorder) shardOf(id uint64) *shard {
	return &r.shards[(hash64(id)>>32)&r.shardMask]
}

// RecordSpan records one stage residency for a sampled message. Calls for
// unsampled or zero IDs are cheap no-ops, so call sites may record
// unconditionally.
func (r *Recorder) RecordSpan(id uint64, st Stage, start time.Time, d time.Duration) {
	r.RecordSpanNs(id, st, start.UnixNano(), int64(d))
}

// RecordSpanNs is RecordSpan with raw unix-nanosecond timestamps (the
// wire layer already works in int64 ns).
func (r *Recorder) RecordSpanNs(id uint64, st Stage, startNs, durNs int64) {
	if !r.Sampled(id) {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	sh := r.shardOf(id)
	sh.mu.Lock()
	a := sh.active[id]
	if a == nil {
		a = activePool.Get().(*active)
		*a = active{id: id}
		sh.active[id] = a
		r.started.Add(1)
	}
	if a.n < maxSpans {
		a.spans[a.n] = Span{Stage: st, StartNs: startNs, DurNs: durNs}
		a.n++
	} else {
		r.spanDropped.Add(1)
	}
	if end := startNs + durNs; end > a.lastNs {
		a.lastNs = end
	}
	sh.mu.Unlock()

	acc := &r.stages[st]
	acc.count.Add(1)
	acc.sum.Add(uint64(durNs))
}

// FinishMessage records the broker-side completion of a sampled message:
// topic, the Eq. 1 covariates (n_fltr, R) and the observed sojourn. The
// trace stays active until the sweeper sees it idle, so egress spans that
// land after the broker's commit still attach.
func (r *Recorder) FinishMessage(id uint64, topic string, nFilters, rGrade int, sojourn time.Duration) {
	if !r.Sampled(id) {
		return
	}
	sh := r.shardOf(id)
	sh.mu.Lock()
	a := sh.active[id]
	if a != nil {
		a.topic = topic
		a.nFilters = nFilters
		a.r = rGrade
		a.sojourn = int64(sojourn)
	}
	sh.mu.Unlock()
	r.sojournCnt.Add(1)
	r.sojournSum.Add(uint64(sojourn))
}

// OfferTail offers a skeleton trace for an unsampled message: only the
// enqueue-wait span and the total sojourn, built from timestamps the
// broker already takes. The atomic threshold load makes the common
// not-slow-enough case one compare.
func (r *Recorder) OfferTail(id uint64, topic string, nFilters, rGrade int, enqueued time.Time, wait, sojourn time.Duration) {
	if r == nil || id == 0 {
		return
	}
	if !r.tail.worthy(int64(sojourn)) {
		return
	}
	t := &Trace{
		ID: id, Topic: topic, NFilters: nFilters, R: rGrade,
		Skeleton: true, Complete: true, SojournNs: int64(sojourn),
		Spans: []Span{{Stage: StageQueue, StartNs: enqueued.UnixNano(), DurNs: int64(wait)}},
	}
	if r.tail.offer(t, r.cfg.Clock()) {
		r.tailKept.Add(1)
	}
}

// sweep periodically commits traces that have been idle for
// FinalizeAfter.
func (r *Recorder) sweep() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.FinalizeAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			cutoff := r.cfg.Clock().UnixNano() - int64(r.cfg.FinalizeAfter)
			for i := range r.shards {
				r.commitShard(&r.shards[i], cutoff)
			}
		}
	}
}

// commitShard removes active entries idle since before cutoff (all of
// them when cutoff is MaxInt64-ish via Flush) and commits each.
func (r *Recorder) commitShard(sh *shard, cutoff int64) {
	var batch []*active
	sh.mu.Lock()
	for id, a := range sh.active {
		if a.lastNs <= cutoff {
			delete(sh.active, id)
			batch = append(batch, a)
		}
	}
	sh.mu.Unlock()
	for _, a := range batch {
		r.commit(sh, a)
	}
}

// commit freezes an active entry into an immutable Trace, publishes it to
// the shard ring, updates the exemplar table and offers it to the tail
// keeper, then pools the entry.
func (r *Recorder) commit(sh *shard, a *active) {
	t := &Trace{
		ID: a.id, Topic: a.topic, NFilters: a.nFilters, R: a.r,
		SojournNs: a.sojourn, Complete: true,
		Spans: append([]Span(nil), a.spans[:a.n]...),
	}
	activePool.Put(a)
	sort.Slice(t.Spans, func(i, j int) bool { return t.Spans[i].StartNs < t.Spans[j].StartNs })

	slot := sh.pos.Add(1) - 1
	sh.ring[slot&uint64(len(sh.ring)-1)].Store(t)
	r.committed.Add(1)

	if total := t.TotalNs(); total > 0 {
		r.exemplars[bucketOf(total)].Store(t.ID)
	}
	if r.tail.offer(t, r.cfg.Clock()) {
		r.tailKept.Add(1)
	}
}

// bucketOf maps a duration onto the shared histogram bucket geometry.
func bucketOf(ns int64) int {
	for i := 0; i < metrics.HistogramBuckets; i++ {
		if float64(ns) <= metrics.BucketBound(i) {
			return i
		}
	}
	return metrics.HistogramBuckets - 1
}

// Flush commits every active trace immediately (tests, shutdown).
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	for i := range r.shards {
		r.commitShard(&r.shards[i], 1<<62)
	}
}

// Get returns the trace for id: committed if available, otherwise a
// snapshot of the still-active entry (Complete=false).
func (r *Recorder) Get(id uint64) (*Trace, bool) {
	if r == nil || id == 0 {
		return nil, false
	}
	sh := r.shardOf(id)
	for i := range sh.ring {
		if t := sh.ring[i].Load(); t != nil && t.ID == id {
			return t, true
		}
	}
	if t, ok := r.tail.get(id); ok {
		return t, true
	}
	sh.mu.Lock()
	a := sh.active[id]
	var t *Trace
	if a != nil {
		t = &Trace{
			ID: a.id, Topic: a.topic, NFilters: a.nFilters, R: a.r,
			SojournNs: a.sojourn,
			Spans:     append([]Span(nil), a.spans[:a.n]...),
		}
	}
	sh.mu.Unlock()
	if t == nil {
		return nil, false
	}
	sort.Slice(t.Spans, func(i, j int) bool { return t.Spans[i].StartNs < t.Spans[j].StartNs })
	return t, true
}

// List returns up to limit committed traces — the head-sampled ring
// contents plus the tail-retained slowest — slowest first, deduplicated
// by ID. limit <= 0 means no cap.
func (r *Recorder) List(limit int) []*Trace {
	if r == nil {
		return nil
	}
	seen := make(map[uint64]*Trace)
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.ring {
			if t := sh.ring[j].Load(); t != nil {
				seen[t.ID] = t
			}
		}
	}
	for _, t := range r.tail.list() {
		if _, ok := seen[t.ID]; !ok {
			seen[t.ID] = t
		}
	}
	out := make([]*Trace, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].TotalNs(), out[j].TotalNs()
		if ti != tj {
			return ti > tj
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Exemplar links one latency histogram bucket to the most recent trace
// whose total fell inside it.
type Exemplar struct {
	// LESeconds is the bucket's inclusive upper bound in seconds (the
	// Prometheus `le` label of the wait/sojourn histograms).
	LESeconds float64
	TraceID   uint64
}

// Exemplars returns the populated bucket→trace links.
func (r *Recorder) Exemplars() []Exemplar {
	if r == nil {
		return nil
	}
	var out []Exemplar
	for i := 0; i < metrics.HistogramBuckets; i++ {
		if id := r.exemplars[i].Load(); id != 0 {
			out = append(out, Exemplar{LESeconds: metrics.BucketBound(i) / 1e9, TraceID: id})
		}
	}
	return out
}

// StageAcc is one stage's cumulative count and residency sum.
type StageAcc struct {
	Count uint64
	SumNs uint64
}

// Mean is the mean residency in seconds (0 when empty).
func (a StageAcc) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.SumNs) / float64(a.Count) / 1e9
}

func (a StageAcc) sub(prev StageAcc) StageAcc {
	// Clamp: accumulators only grow, but guard snapshots taken across a
	// recorder swap.
	if a.Count < prev.Count || a.SumNs < prev.SumNs {
		return a
	}
	return StageAcc{Count: a.Count - prev.Count, SumNs: a.SumNs - prev.SumNs}
}

// StageStats is a cumulative snapshot of the per-stage decomposition.
// Subtracting two snapshots (Sub) yields a window, which is how the drift
// monitor publishes the live W_obs ≈ W_queue + Σ residencies gauges.
type StageStats struct {
	Stages  [numStages]StageAcc
	Sojourn StageAcc

	Started     uint64
	Committed   uint64
	TailKept    uint64
	SpanDropped uint64
}

// Stats snapshots the cumulative stage accumulators.
func (r *Recorder) Stats() StageStats {
	var s StageStats
	if r == nil {
		return s
	}
	for i := range s.Stages {
		s.Stages[i] = StageAcc{Count: r.stages[i].count.Load(), SumNs: r.stages[i].sum.Load()}
	}
	s.Sojourn = StageAcc{Count: r.sojournCnt.Load(), SumNs: r.sojournSum.Load()}
	s.Started = r.started.Load()
	s.Committed = r.committed.Load()
	s.TailKept = r.tailKept.Load()
	s.SpanDropped = r.spanDropped.Load()
	return s
}

// Sub returns the window between two snapshots.
func (s StageStats) Sub(prev StageStats) StageStats {
	var out StageStats
	for i := range s.Stages {
		out.Stages[i] = s.Stages[i].sub(prev.Stages[i])
	}
	out.Sojourn = s.Sojourn.sub(prev.Sojourn)
	out.Started = s.Started - prev.Started
	out.Committed = s.Committed - prev.Committed
	out.TailKept = s.TailKept - prev.TailKept
	out.SpanDropped = s.SpanDropped - prev.SpanDropped
	return out
}

// Stage returns one stage's accumulator from the snapshot.
func (s StageStats) Stage(st Stage) StageAcc { return s.Stages[st] }

// SojournMean is the mean observed sojourn in seconds over the window.
func (s StageStats) SojournMean() float64 { return s.Sojourn.Mean() }

// Coverage is the fraction of the mean sojourn explained by the broker
// service stages plus queueing: (queue + match + replicate + transmit) /
// sojourn. 1.0 means the decomposition tiles the observed sojourn; the
// residual is dispatch overhead the spans do not name.
func (s StageStats) Coverage() float64 {
	soj := s.Sojourn.Mean()
	if soj <= 0 {
		return 0
	}
	sum := 0.0
	for _, st := range []Stage{StageQueue, StageMatch, StageReplicate, StageTransmit} {
		sum += s.Stages[st].Mean() * ratio(s.Stages[st].Count, s.Sojourn.Count)
	}
	return sum / soj
}

// ratio scales a stage mean by how often the stage fired per finished
// message (replicate fires R-1 times, match once, etc.), so Coverage
// compares per-message totals rather than per-occurrence means.
func ratio(stageCount, msgCount uint64) float64 {
	if msgCount == 0 {
		return 0
	}
	return float64(stageCount) / float64(msgCount)
}

// tailKeeper retains the slowest-K traces per rotation window using a
// fixed-size min-heap on TotalNs. Readers get the current plus previous
// window so a fresh rotation never looks empty.
type tailKeeper struct {
	mu        sync.Mutex
	keep      int
	window    time.Duration
	curStart  time.Time
	cur, prev []*Trace

	// threshold is the heap minimum once full (0 before), read lock-free
	// by OfferTail's fast path.
	threshold atomic.Int64
}

func (k *tailKeeper) worthy(totalNs int64) bool {
	return totalNs > k.threshold.Load()
}

// offer inserts t when it is among the window's slowest. Returns whether
// it was kept.
func (k *tailKeeper) offer(t *Trace, now time.Time) bool {
	total := t.TotalNs()
	if total <= 0 {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if now.Sub(k.curStart) >= k.window {
		k.prev = k.cur
		k.cur = nil
		k.curStart = now
		k.threshold.Store(0)
	}
	if len(k.cur) < k.keep {
		k.cur = append(k.cur, t)
		k.up(len(k.cur) - 1)
		if len(k.cur) == k.keep {
			k.threshold.Store(k.cur[0].TotalNs())
		}
		return true
	}
	if total <= k.cur[0].TotalNs() {
		return false
	}
	k.cur[0] = t
	k.down(0)
	k.threshold.Store(k.cur[0].TotalNs())
	return true
}

func (k *tailKeeper) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if k.cur[p].TotalNs() <= k.cur[i].TotalNs() {
			return
		}
		k.cur[p], k.cur[i] = k.cur[i], k.cur[p]
		i = p
	}
}

func (k *tailKeeper) down(i int) {
	n := len(k.cur)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && k.cur[l].TotalNs() < k.cur[m].TotalNs() {
			m = l
		}
		if r < n && k.cur[r].TotalNs() < k.cur[m].TotalNs() {
			m = r
		}
		if m == i {
			return
		}
		k.cur[i], k.cur[m] = k.cur[m], k.cur[i]
		i = m
	}
}

func (k *tailKeeper) list() []*Trace {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Trace, 0, len(k.cur)+len(k.prev))
	out = append(out, k.cur...)
	out = append(out, k.prev...)
	return out
}

func (k *tailKeeper) get(id uint64) (*Trace, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, t := range k.cur {
		if t.ID == id {
			return t, true
		}
	}
	for _, t := range k.prev {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}
