package telemetry

import (
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/mg1"
	"repro/internal/stats"
)

// This file is the online model-drift monitor: the paper's predicted-vs-
// measured waiting-time comparison (Figs. 8–12) computed continuously on
// the running broker instead of offline. Each tick takes every topic's
// tape (broker.TakeTape), the record the conformance suite reads too, and
// estimates the M^X/G/1 inputs —
//
//	λ      from the windowed arrival count (Received),
//	E[B^k] from the entries' End − Start (Eqs. 7–9 measured),
//	E[X^k] from the batch sizes (entries sharing an Enqueued stamp),
//	ρ      = λ·E[B] (Eq. 6),
//
// — evaluates the mean wait (Eq. 4) and the Gamma quantile approximation
// (Eqs. 19–20), and publishes them beside the exact sample mean and
// quantile of the entries' Start − Enqueued, with their ratio. A drift
// ratio far from one is the operator's signal that reality has diverged
// from the model's assumptions (overload, lost Poisson-ness, service-time
// inflation). Above TapeCapacity messages per window (about 3 300 msgs/s
// at the 5 s default) the ring overwrites, and the statistics cover the
// window's last TapeCapacity messages.
//
// The model is one pooled M^X/G/1 queue per topic. A topic's k dispatch
// workers (broker.Options.Shards on the fast engine) are k independent
// single servers, each fed by the publishers pinned to it. When one worker
// takes all of a topic's arrivals — a single publisher, or every benchmark
// workload — the pooled queue is that worker's queue and the prediction is
// exact. When several workers share the arrivals, each sees a fraction of
// λ, and since the Pollaczek–Khinchine wait grows with λ the pooled
// prediction is an upper bound on each worker's mean wait.

// MonitoredQuantile is the waiting-time quantile the monitor tracks, the
// paper's q99 dashboard signal.
const MonitoredQuantile = 0.99

// DefaultMinSamples is the minimum number of served messages a window must
// contain before an estimate is attempted; smaller windows stay invalid
// ("too few samples") instead of publishing noise.
const DefaultMinSamples = 50

// Estimate is one topic's windowed model-vs-measurement comparison.
type Estimate struct {
	Topic string `json:"topic"`
	// Window is the wall-clock span of the rolling window; Messages the
	// number of messages served in it, overwritten tape entries included.
	Window   time.Duration `json:"window_ns"`
	Messages uint64        `json:"messages"`
	// Lambda is the windowed arrival rate (msgs/s), Rho = Lambda*EB.
	Lambda float64 `json:"lambda"`
	Rho    float64 `json:"rho"`
	// EX is the windowed mean batch size E[X] (messages per arrival
	// unit). The prediction is M^X/G/1 at the observed batch-size
	// moments; without batched publishes X ≡ 1 and that is plain M/G/1.
	EX float64 `json:"ex,omitempty"`
	// EB, EB2, EB3 are the measured raw service-time moments (seconds).
	EB  float64 `json:"eb"`
	EB2 float64 `json:"eb2"`
	EB3 float64 `json:"eb3"`
	// PredictedEW and PredictedQ are the model's mean wait (Eq. 4) and
	// MonitoredQuantile waiting-time quantile (Eqs. 19–20), in seconds.
	PredictedEW float64 `json:"predicted_ew"`
	PredictedQ  float64 `json:"predicted_q"`
	// ObservedEW and ObservedQ are the measured mean wait and quantile.
	ObservedEW float64 `json:"observed_ew"`
	ObservedQ  float64 `json:"observed_q"`
	// DriftRatio is ObservedEW / PredictedEW; 1 means the model holds.
	DriftRatio float64 `json:"drift_ratio"`
	// Valid reports whether a prediction was computed; Reason explains an
	// invalid estimate (too few samples, unstable window, ...). Observed
	// values are filled in whenever the window served any message.
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

// Compute evaluates one topic's estimate from a window's tape entries, the
// number the ring overwrote in it, and the messages it received.
func Compute(topic string, tape []broker.TapeEntry, overwritten, received uint64, window time.Duration, quantile float64, minSamples uint64) Estimate {
	e := Estimate{Topic: topic, Window: window, Messages: uint64(len(tape)) + overwritten}
	if window <= 0 {
		e.Reason = "empty window"
		return e
	}
	e.Lambda = float64(received) / window.Seconds()
	if len(tape) == 0 {
		e.Reason = "too few samples"
		return e
	}
	waits := stats.NewSummary()
	for _, en := range tape {
		waits.Add(en.Start.Sub(en.Enqueued).Seconds())
	}
	// waits is not empty; a quantile outside [0, 1] fails the model below.
	e.ObservedEW, _ = waits.Mean()
	e.ObservedQ, _ = waits.Quantile(quantile)
	e.EB, e.EB2, e.EB3 = broker.ServiceMoments(tape)
	// Summation error can put a (near-)deterministic service's E[B^2] a
	// few ulps below E[B]^2: clamp to zero variance rather than reject.
	if e.EB2 < e.EB*e.EB {
		e.EB2 = e.EB * e.EB
	}
	e.Rho = e.Lambda * e.EB
	if uint64(len(tape)) < minSamples {
		e.Reason = "too few samples"
		return e
	}
	x := batchMoments(tape)
	e.EX = x.M1
	q, err := mg1.NewBatchQueue(e.Lambda/x.M1, x, mg1.ServiceMoments{M1: e.EB, M2: e.EB2, M3: e.EB3})
	if err != nil {
		e.Reason = err.Error()
		return e
	}
	e.PredictedEW = q.MeanWait()
	dist, err := q.GammaApprox()
	if err == nil {
		e.PredictedQ, err = dist.Quantile(quantile)
	}
	if err != nil {
		e.Reason = err.Error()
		return e
	}
	switch {
	case e.PredictedEW > 0:
		e.DriftRatio = e.ObservedEW / e.PredictedEW
	case e.ObservedEW == 0:
		e.DriftRatio = 1
	}
	e.Valid = true
	return e
}

// batchMoments returns the raw moments of the arrival batch size X over a
// tape. Publisher.send stamps a unit's members with one clock read, so a
// batch is the entries of one worker that share an Enqueued stamp.
func batchMoments(tape []broker.TapeEntry) mg1.BatchMoments {
	type unit struct {
		worker int
		at     int64
	}
	sizes := make(map[unit]float64)
	for _, en := range tape {
		sizes[unit{en.Worker, en.Enqueued.UnixNano()}]++
	}
	var x mg1.BatchMoments
	for _, k := range sizes { // integer sums: exact in any order
		x.M1 += k
		x.M2 += k * k
		x.M3 += k * k * k
	}
	n := float64(len(sizes))
	x.M1, x.M2, x.M3 = x.M1/n, x.M2/n, x.M3/n
	return x
}

// Monitor periodically evaluates Compute over every topic of a broker and
// publishes the results as labeled gauges. The broker must run with
// Options.WaitTiming, otherwise there is nothing to monitor, and no other
// TakeTape caller: the monitor is the tapes' one reader.
type Monitor struct {
	b          *broker.Broker
	interval   time.Duration
	minSamples uint64

	gLambda, gRho, gServiceMean    *metrics.GaugeVec
	gPredEW, gPredQ, gObsEW, gObsQ *metrics.GaugeVec
	gDrift, gWindowMsgs            *metrics.GaugeVec

	mu     sync.Mutex
	prev   map[string]uint64 // Received at the previous tick
	prevAt time.Time
	est    map[string]Estimate
	// tg is the flight recorder's windowed stage-decomposition state;
	// nil unless AttachTracer was called (see tracegauges.go).
	tg *traceGauges

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewMonitor returns a monitor evaluating every interval (default 5 s).
func NewMonitor(b *broker.Broker, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Monitor{
		b:          b,
		interval:   interval,
		minSamples: DefaultMinSamples,
		gLambda: metrics.NewGaugeVec("jms_model_lambda",
			"Windowed arrival rate (messages/s) feeding the M/G/1 model.", "topic"),
		gRho: metrics.NewGaugeVec("jms_model_rho",
			"Windowed utilization rho = lambda * E[B] (Eq. 6).", "topic"),
		gServiceMean: metrics.NewGaugeVec("jms_model_service_mean_seconds",
			"Windowed mean service time E[B] (seconds).", "topic"),
		gPredEW: metrics.NewGaugeVec("jms_model_predicted_ew_seconds",
			"Predicted mean waiting time E[W] by Pollaczek-Khinchine (Eq. 4).", "topic"),
		gPredQ: metrics.NewGaugeVec("jms_model_predicted_q99_seconds",
			"Predicted q99 waiting time via the Gamma approximation (Eqs. 19-20).", "topic"),
		gObsEW: metrics.NewGaugeVec("jms_model_observed_ew_seconds",
			"Observed mean waiting time over the window.", "topic"),
		gObsQ: metrics.NewGaugeVec("jms_model_observed_q99_seconds",
			"Observed q99 waiting time over the window.", "topic"),
		gDrift: metrics.NewGaugeVec("jms_model_drift_ratio",
			"Observed / predicted mean waiting time; 1 means the model holds.", "topic"),
		gWindowMsgs: metrics.NewGaugeVec("jms_model_window_messages",
			"Messages served in the evaluation window.", "topic"),
		est:  make(map[string]Estimate),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// GaugeVecs returns the monitor's gauge families for exposition,
// including the flight recorder's stage-decomposition families when a
// tracer is attached.
func (m *Monitor) GaugeVecs() []*metrics.GaugeVec {
	out := []*metrics.GaugeVec{
		m.gLambda, m.gRho, m.gServiceMean,
		m.gPredEW, m.gPredQ, m.gObsEW, m.gObsQ,
		m.gDrift, m.gWindowMsgs,
	}
	return append(out, m.traceGaugeVecs()...)
}

// Start establishes the baseline window and launches the evaluation loop;
// Stop ends it. Taking the baseline synchronously means traffic arriving
// right after Start is already inside the first evaluated window instead
// of silently folded into it.
func (m *Monitor) Start() {
	m.startOnce.Do(func() {
		m.Tick(time.Now())
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.interval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					m.Tick(now)
				case <-m.stop:
					return
				}
			}
		}()
	})
}

// Stop ends the evaluation loop and waits for it. Safe without Start.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	select {
	case <-m.done:
	default:
		m.startOnce.Do(func() { close(m.done) })
		<-m.done
	}
}

// Tick evaluates one rolling window ending now. The first tick on a topic
// arms its tape and only establishes the baseline. Exported so tests and
// scrape-driven setups can pace the monitor themselves.
func (m *Monitor) Tick(now time.Time) {
	cur := m.b.Telemetry()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tickTrace()
	window, prev := now.Sub(m.prevAt), m.prev
	m.prev, m.prevAt = make(map[string]uint64, len(cur)), now
	for topic, c := range cur {
		tape, overwritten := m.b.TakeTape(topic)
		last, seen := prev[topic]
		m.prev[topic] = c.Received
		received := c.Received - last
		if !seen || received == 0 && len(tape) == 0 && overwritten == 0 {
			continue // first tick: the tape is armed; idle: keep the estimate
		}
		e := Compute(topic, tape, overwritten, received, window, MonitoredQuantile, m.minSamples)
		m.est[topic] = e
		m.publish(e)
	}
}

// publish moves one estimate into the gauge families. Observed values are
// published whenever the window saw traffic; the prediction gauges only
// update on valid estimates, so they never expose NaN or a half-computed
// window.
func (m *Monitor) publish(e Estimate) {
	m.gLambda.With(e.Topic).Set(e.Lambda)
	m.gRho.With(e.Topic).Set(e.Rho)
	m.gServiceMean.With(e.Topic).Set(e.EB)
	m.gObsEW.With(e.Topic).Set(e.ObservedEW)
	m.gObsQ.With(e.Topic).Set(e.ObservedQ)
	m.gWindowMsgs.With(e.Topic).Set(float64(e.Messages))
	if e.Valid {
		m.gPredEW.With(e.Topic).Set(e.PredictedEW)
		m.gPredQ.With(e.Topic).Set(e.PredictedQ)
		m.gDrift.With(e.Topic).Set(e.DriftRatio)
	}
}

// Estimates returns the latest estimate per topic.
func (m *Monitor) Estimates() map[string]Estimate {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]Estimate, len(m.est))
	for k, v := range m.est {
		out[k] = v
	}
	return out
}
