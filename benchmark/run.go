package main

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// runConfig is one invocation's settings for a single workload.
type runConfig struct {
	seed int64
	// seconds is the measured time of the run; the phases split it in fixed
	// shares. Set-up and warm-up come on top.
	seconds float64
	traced  bool
	// spansDir receives trace-<workload>.json after a traced run.
	spansDir string
}

// runOutput is what one run of one workload reports.
type runOutput struct {
	Workload  string   `json:"workload"`
	Metrics   results  `json:"metrics"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Correct   bool     `json:"correct"`
	Notes     []string `json:"notes,omitempty"`
}

func (o *runOutput) count(c phaseCounts) {
	o.Attempted += c.attempted
	o.Failed += c.failed
	if c.failed > 0 {
		o.note("failed operations, %s", c.why)
	}
}

func (o *runOutput) note(format string, a ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, a...))
}

// Shares of the measured time. End to end: a closed-loop saturated phase and
// the open-loop paced phase at the hi rate; traced: replay, saturated with
// live counters, the paced phases at both rates, then the hi phase again
// under the flight recorder.
const (
	shareSaturated = 0.5
	shareHi        = 0.5

	shareReplay         = 0.25
	shareClient         = 0.05
	shareTracedSat      = 0.15
	shareTracedLo       = 0.10
	shareTracedHi       = 0.20
	shareTracedRecorded = 0.25
	replayRows          = 32 // rows sharing shareReplay, rounded up
)

func (c runConfig) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// warmup is discarded: connections, pools, arenas, the mesh's lazy peer
// dials and the runtime settle before anything is measured.
func (c runConfig) warmup() time.Duration {
	return min(2*time.Second, c.share(1.0/8))
}

// timedSetUp boots the workload repeatedly — at least five times and for at
// least half a second, set-up being milliseconds on the small workloads — and
// returns the last stack with the median set-up time.
func timedSetUp(w *workload, in inputs) (*stack, float64, int, error) {
	var secs []float64
	var total time.Duration
	for {
		t := time.Now()
		st, err := setUp(w, in, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		d := time.Since(t)
		secs = append(secs, d.Seconds())
		total += d
		if len(secs) >= 5 && (total >= time.Second/2 || len(secs) >= 200) {
			return st, median(secs), len(secs), nil
		}
		st.close()
	}
}

// checkPaced reports the generator's verdict on a paced phase beside its
// latencies, so an invalid or unsustained phase is never read as the
// program's.
func (o *runOutput) checkPaced(name string, rate float64, p pacedResult) {
	o.note("paced phase %s at %.0f msgs/s is %s: pacer lag p99 %.0f us, achieved rate ratio %.4f, outstanding peak %d",
		name, rate, p.status(), p.lagP99Us, p.achievedRatio, p.outstandingPeak)
}

// gate folds the end-of-run integrity check into the output: a violation is
// a failed operation and makes the run incorrect.
func (o *runOutput) gate(g *generator) {
	violations, detail := g.finish()
	o.Failed += violations
	if violations > 0 {
		o.Correct = false
		o.note("correctness gate: %s", detail)
	}
}

// endToEnd measures the workload with tracing off.
func endToEnd(w *workload, cfg runConfig) (*runOutput, *spanLog, error) {
	out := &runOutput{Workload: w.name, Metrics: results{}, Correct: true}
	put := func(name string, v float64, n int) { out.Metrics.put(endToEndDefs, name, v, n) }
	in := makeInputs(w, cfg.seed)
	log := newSpanLog(w.name)
	root := log.start("run:end_to_end", 0)
	defer log.end(root)

	id := log.start("setup", root)
	st, setupSecs, n, err := timedSetUp(w, in)
	log.end(id)
	if err != nil {
		return nil, log, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	put("setup_s", setupSecs, n)

	g := newGenerator(w, in, st)
	log.within("warmup", root, func() {
		g.saturated(cfg.warmup() / 2)
		g.paced(w.rateHi, cfg.warmup()/2, in.schedule)
	})

	var sat satResult
	log.within("saturated", root, func() { sat = g.saturated(cfg.share(shareSaturated)) })
	out.count(sat.phaseCounts)
	msgs := float64(max(1, sat.delivered))
	put("capacity_msgs_per_s", sat.capacity, int(sat.delivered))
	put("allocs_per_msg", float64(sat.mallocs)/msgs, int(sat.delivered))
	put("alloc_bytes_per_msg", float64(sat.allocBytes)/msgs, int(sat.delivered))
	put("heap_live_mb", sat.heapLiveMB, 1)

	var hi pacedResult
	log.within("paced_hi", root, func() { hi = g.paced(w.rateHi, cfg.share(shareHi), in.schedule) })
	out.count(hi.phaseCounts)
	out.checkPaced("hi", w.rateHi, hi)
	put("cpu_user_us_per_msg", hi.cpuUserUs, int(hi.delivered))
	out.note("ungated at %.0f msgs/s: latency p50 %.1f us, p99 %.1f us, mean %.1f us over %d messages; system CPU %.1f us per message (the traced run reports these rows)",
		w.rateHi, hi.p50, hi.p99, hi.mean, hi.samples, hi.cpuSysUs)

	out.gate(g)
	return out, log, nil
}

// traced collects the per-layer metrics. It never feeds an end-to-end
// number: its phases run beside replay leftovers and, in Part C, under the
// flight recorder.
func traced(w *workload, cfg runConfig) (*runOutput, *spanLog, error) {
	out := &runOutput{Workload: w.name, Correct: true}
	in := makeInputs(w, cfg.seed)
	log := newSpanLog(w.name)
	root := log.start("run:traced", 0)
	defer log.end(root)

	// Part A: layer replay.
	id := log.start("replay", root)
	res, err := replay(w, in, cfg.share(shareReplay)/replayRows, log, id)
	log.end(id)
	if err != nil {
		return nil, log, fmt.Errorf("replay: %w", err)
	}
	out.Metrics = res
	put := func(name string, v float64, n int) { res.put(perLayerDefs, name, v, n) }

	// Part B: live counters over a saturated phase, then the bare hi phase.
	st, err := setUp(w, in, nil)
	if err != nil {
		return nil, log, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	g := newGenerator(w, in, st)
	var clientErr error
	log.within("client_round_trips", root, func() {
		var c phaseCounts
		c, clientErr = clientRows(g, cfg.share(shareClient), res)
		out.count(c)
	})
	if clientErr != nil {
		return nil, log, fmt.Errorf("client rows: %w", clientErr)
	}
	log.within("warmup", root, func() { g.saturated(cfg.warmup() / 2) })
	var sat satResult
	var lo, bare pacedResult
	before := snapshot(st)
	log.within("saturated", root, func() { sat = g.saturated(cfg.share(shareTracedSat)) })
	counterRows(res, before, snapshot(st), sat.delivered)
	log.within("paced_lo", root, func() { lo = g.paced(w.rateLo, cfg.share(shareTracedLo), in.schedule) })
	log.within("paced_hi", root, func() { bare = g.paced(w.rateHi, cfg.share(shareTracedHi), in.schedule) })
	out.count(sat.phaseCounts)
	out.count(lo.phaseCounts)
	out.count(bare.phaseCounts)
	out.checkPaced("lo", w.rateLo, lo)
	out.checkPaced("hi", w.rateHi, bare)
	out.gate(g)
	st.close()
	put("latency.lo_p50_us", lo.p50, lo.samples)
	put("latency.lo_p99_us", lo.p99, lo.samples)
	put("latency.hi_p50_us", bare.p50, bare.samples)
	put("latency.hi_p99_us", bare.p99, bare.samples)
	put("latency.hi_mean_us", bare.mean, bare.samples)
	put("runtime.cpu_sys_us_per_msg", bare.cpuSysUs, int(bare.delivered))

	valid := 0.0
	if lo.status() == "valid" && bare.status() == "valid" {
		valid = 1
	}
	put("loadgen.pacer_lag_p99_us", bare.lagP99Us, int(bare.attempted))
	put("loadgen.achieved_rate_ratio", bare.achievedRatio, int(bare.attempted))
	put("loadgen.outstanding_peak", float64(bare.outstandingPeak), int(bare.attempted))
	put("loadgen.paced_valid", valid, 1)

	// Part C: the hi phase again with the flight recorder attached through
	// the public broker and wire options.
	rec := trace.New(trace.Config{SampleEvery: 64})
	defer rec.Close()
	st2, err := setUp(w, in, rec)
	if err != nil {
		return nil, log, fmt.Errorf("traced set-up: %w", err)
	}
	defer st2.close()
	g2 := newGenerator(w, in, st2)
	log.within("warmup_recorded", root, func() { g2.saturated(cfg.warmup() / 2) })
	var recorded pacedResult
	s0 := rec.Stats()
	log.within("paced_hi_recorded", root, func() { recorded = g2.paced(w.rateHi, cfg.share(shareTracedRecorded), in.schedule) })
	stats := rec.Stats().Sub(s0)
	out.count(recorded.phaseCounts)
	out.gate(g2)

	// Stage residency per finished sampled message, so R replicas and R
	// egress frames add up the way they do in E[B].
	sampled := stats.Sojourn.Count
	stage := func(name string, s trace.Stage) {
		put(name, ratio(stats.Stage(s).SumNs, sampled)/1e3, int(sampled))
	}
	stage("trace.decode_us", trace.StageDecode)
	stage("trace.queue_us", trace.StageQueue)
	stage("trace.match_us", trace.StageMatch)
	stage("trace.replicate_us", trace.StageReplicate)
	stage("trace.transmit_us", trace.StageTransmit)
	stage("trace.encode_us", trace.StageEncode)
	stage("trace.egress_queue_us", trace.StageEgressQueue)
	stage("trace.egress_write_us", trace.StageEgressWrite)
	put("trace.sojourn_us", stats.SojournMean()*1e6, int(sampled))
	put("trace.coverage_ratio", stats.Coverage(), int(sampled))
	put("trace.overhead_pct", pctOver(recorded.p50, bare.p50), recorded.samples)
	put("trace.cpu_overhead_pct", pctOver(recorded.cpuUserUs+recorded.cpuSysUs, bare.cpuUserUs+bare.cpuSysUs), int(recorded.delivered))

	// Budget: the replay rows on one message's blocking path through the
	// saturated phase against the measured time per message.
	v := func(name string) float64 { return res[name].Value }
	local := float64(w.r / w.members) // deliveries per member
	sumNs := v("wire.batch_encode_ns_per_msg") + v("wire.frame_read_ns")/satBatch + v("wire.batch_decode_ns_per_msg") +
		v("broker.publish_batch_ns_per_msg") +
		local*(v("wire.delivery_encode_ns")+v("wire.write_ns_per_frame")+v("wire.delivery_decode_ns"))
	if w.members > 1 {
		sumNs += v("cluster.forward_batch_us_per_msg") * 1e3
	}
	put("budget.layer_sum_us_per_msg", sumNs/1e3, 1)
	if sat.capacity > 0 {
		perMsgNs := 1e9 / sat.capacity
		put("budget.residual_pct", (perMsgNs-sumNs)/perMsgNs*100, int(sat.delivered))
		out.note("budget: layers sum to %.2f us of %.2f us per message; the residual is goroutine hand-offs, channel hops, the ack round trip and the generator's own stamping and checking, and is negative where the two cores overlap layers",
			sumNs/1e3, perMsgNs/1e3)
	} else {
		put("budget.residual_pct", 0, 0)
	}
	put("failed_ops_ratio", ratio(out.Failed, out.Attempted), int(out.Attempted))
	return out, log, nil
}

func pctOver(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

// runWorkload runs one workload end to end or traced and, after a traced
// run, writes its spans.
func runWorkload(w *workload, cfg runConfig) (*runOutput, error) {
	run := endToEnd
	if cfg.traced {
		run = traced
	}
	out, log, err := run(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.traced {
		path, err := log.write(cfg.spansDir)
		if err != nil {
			return nil, fmt.Errorf("%s: write spans: %w", w.name, err)
		}
		out.note("spans written to %s", path)
	}
	return out, nil
}
