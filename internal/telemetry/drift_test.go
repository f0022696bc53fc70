package telemetry

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// synthWindow builds a TopicTelemetry window from an exact M/D/1 sample
// path: Poisson arrivals at rate lambda, deterministic service b, waiting
// times from the Lindley recursion W_{k+1} = max(0, W_k + B - A_{k+1}).
// It returns the window and its wall-clock span.
func synthWindow(seed int64, lambda float64, b time.Duration, n int) (broker.TopicTelemetry, time.Duration) {
	rng := stats.NewRNG(seed)
	bs := b.Seconds()
	var tel broker.TopicTelemetry
	var wait, clock float64
	var waitHist, sojournHist metrics.Histogram
	var waitM, svcM metrics.Moments
	for i := 0; i < n; i++ {
		a := rng.Exp(lambda)
		clock += a
		if i > 0 {
			wait = math.Max(0, wait+bs-a)
		}
		wd := time.Duration(wait * float64(time.Second))
		waitHist.Observe(wd)
		waitM.Observe(wd)
		sojournHist.Observe(wd + b)
		svcM.Observe(b)
	}
	tel.Received = uint64(n)
	tel.Wait = waitHist.Snapshot()
	tel.Sojourn = sojournHist.Snapshot()
	tel.WaitMoments = waitM.Snapshot()
	tel.ServiceMoments = svcM.Snapshot()
	return tel, time.Duration(clock * float64(time.Second))
}

// TestComputeMD1Agreement is the acceptance check of the drift monitor:
// on a synthetic M/D/1 window at rho ~= 0.5 the Pollaczek–Khinchine
// prediction and the Lindley-measured waiting time must agree within 15%,
// i.e. the drift ratio is ~1.
func TestComputeMD1Agreement(t *testing.T) {
	const (
		lambda = 500.0
		b      = time.Millisecond // rho = 0.5
		n      = 200000
	)
	delta, window := synthWindow(1, lambda, b, n)
	e := Compute("t", delta, window, MonitoredQuantile, DefaultMinSamples)
	if !e.Valid {
		t.Fatalf("estimate invalid: %q (%+v)", e.Reason, e)
	}
	if math.Abs(e.Rho-0.5) > 0.05 {
		t.Errorf("rho = %v, want ~0.5", e.Rho)
	}
	// Exact M/D/1 mean wait: lambda*b^2 / (2*(1-rho)) = 0.5 ms.
	exact := lambda * b.Seconds() * b.Seconds() / (2 * (1 - 0.5))
	if math.Abs(e.PredictedEW-exact)/exact > 0.10 {
		t.Errorf("predicted E[W] = %v, want ~%v", e.PredictedEW, exact)
	}
	if e.ObservedEW <= 0 {
		t.Fatalf("observed E[W] = %v", e.ObservedEW)
	}
	if rel := math.Abs(e.ObservedEW-e.PredictedEW) / e.PredictedEW; rel > 0.15 {
		t.Errorf("predicted/observed E[W] disagree by %.1f%%: predicted %v observed %v",
			100*rel, e.PredictedEW, e.ObservedEW)
	}
	if e.DriftRatio < 0.85 || e.DriftRatio > 1.15 {
		t.Errorf("drift ratio = %v, want ~1", e.DriftRatio)
	}
	// The observed q99 comes out of a log2-bucketed histogram (factor-2
	// resolution), so only a coarse agreement with the Gamma-approximated
	// prediction is meaningful.
	if e.PredictedQ <= 0 || e.ObservedQ <= 0 {
		t.Fatalf("quantiles: predicted %v observed %v", e.PredictedQ, e.ObservedQ)
	}
	if e.ObservedQ < e.PredictedQ/2 || e.ObservedQ > e.PredictedQ*2 {
		t.Errorf("q99 disagrees beyond histogram resolution: predicted %v observed %v",
			e.PredictedQ, e.ObservedQ)
	}
}

// TestComputeBatchedWindow drives the batch-aware branch: a synthetic
// M^X/D/1 window (fixed batches of 4) must be predicted with the
// M^X/G/1 extension — the per-message model would underestimate E[W] by
// the whole batch-mate term and push the drift ratio far above 1.
func TestComputeBatchedWindow(t *testing.T) {
	const (
		lambdaB = 125.0
		k       = 4
		b       = time.Millisecond // rho = lambdaB*k*b = 0.5
		units   = 50000
	)
	rng := stats.NewRNG(5)
	bs := b.Seconds()
	var tel broker.TopicTelemetry
	var wb, clock float64
	var waitHist, sojournHist metrics.Histogram
	var waitM, svcM, batchM metrics.Moments
	for i := 0; i < units; i++ {
		if i > 0 {
			a := rng.Exp(lambdaB)
			clock += a
			wb = math.Max(0, wb-a)
		}
		batchM.ObserveValue(k)
		var prefix float64
		for j := 0; j < k; j++ {
			wd := time.Duration((wb + prefix) * float64(time.Second))
			waitHist.Observe(wd)
			waitM.Observe(wd)
			sojournHist.Observe(wd + b)
			svcM.Observe(b)
			prefix += bs
		}
		wb += prefix
	}
	tel.Received = uint64(units * k)
	tel.Wait = waitHist.Snapshot()
	tel.Sojourn = sojournHist.Snapshot()
	tel.WaitMoments = waitM.Snapshot()
	tel.ServiceMoments = svcM.Snapshot()
	tel.BatchMoments = batchM.Snapshot()
	window := time.Duration(clock * float64(time.Second))

	e := Compute("t", tel, window, MonitoredQuantile, DefaultMinSamples)
	if !e.Valid {
		t.Fatalf("estimate invalid: %q (%+v)", e.Reason, e)
	}
	if math.Abs(e.EX-k) > 1e-9 {
		t.Errorf("E[X] = %v, want %v", e.EX, float64(k))
	}
	if math.Abs(e.Rho-0.5) > 0.05 {
		t.Errorf("rho = %v, want ~0.5", e.Rho)
	}
	// Exact M^X/D/1 mean wait at these parameters:
	// lambda*E[B^2]/(2(1-rho)) + (M2-M1)E[B]/(2 M1 (1-rho))
	//   = 500e-6/1 + 12e-3/4 = 3.5 ms.
	exact := lambdaB * k * bs * bs / (2 * (1 - 0.5))
	exact += float64(k*k-k) * bs / (2 * k * (1 - 0.5))
	if math.Abs(e.PredictedEW-exact)/exact > 0.10 {
		t.Errorf("predicted E[W] = %v, want ~%v", e.PredictedEW, exact)
	}
	if rel := math.Abs(e.ObservedEW-e.PredictedEW) / e.PredictedEW; rel > 0.15 {
		t.Errorf("predicted/observed E[W] disagree by %.1f%%: predicted %v observed %v",
			100*rel, e.PredictedEW, e.ObservedEW)
	}
	if e.DriftRatio < 0.85 || e.DriftRatio > 1.15 {
		t.Errorf("drift ratio = %v, want ~1", e.DriftRatio)
	}
}

// TestComputeDetectsDrift: waits measured from a slower reality than the
// moments fed to the model must push the drift ratio above 1.
func TestComputeDetectsDrift(t *testing.T) {
	delta, window := synthWindow(2, 500, time.Millisecond, 100000)
	// Inflate the observed waits 3x while leaving the model inputs alone —
	// reality got slower than the model believes.
	delta.WaitMoments.S1 *= 3
	e := Compute("t", delta, window, MonitoredQuantile, DefaultMinSamples)
	if !e.Valid {
		t.Fatalf("estimate invalid: %q", e.Reason)
	}
	if e.DriftRatio < 2 {
		t.Errorf("drift ratio = %v, want ~3", e.DriftRatio)
	}
}

func TestComputeInvalidWindows(t *testing.T) {
	delta, window := synthWindow(3, 500, time.Millisecond, 1000)

	if e := Compute("t", delta, 0, MonitoredQuantile, DefaultMinSamples); e.Valid || e.Reason != "empty window" {
		t.Errorf("zero window: %+v", e)
	}
	if e := Compute("t", delta, window, MonitoredQuantile, 5000); e.Valid || e.Reason != "too few samples" {
		t.Errorf("small window: %+v", e)
	}
	// Observed values are still reported on an invalid estimate.
	if e := Compute("t", delta, window, MonitoredQuantile, 5000); e.ObservedEW <= 0 {
		t.Errorf("invalid estimate lost observed wait: %+v", e)
	}

	// An overloaded window (rho >= 1) cannot produce a finite prediction.
	overload, span := synthWindow(4, 2000, time.Millisecond, 1000)
	if e := Compute("t", overload, span, MonitoredQuantile, DefaultMinSamples); e.Valid {
		t.Errorf("overloaded window produced a prediction: %+v", e)
	} else if e.Reason == "" {
		t.Error("overloaded window has no reason")
	}
}

// TestMonitorLive ticks the monitor against a real WaitTiming broker and
// checks the estimates and every exported gauge.
func TestMonitorLive(t *testing.T) {
	b := broker.New(broker.Options{WaitTiming: true, InFlight: 256, SubscriberBuffer: 256})
	if err := b.ConfigureTopic("a"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	mon := NewMonitor(b, time.Second)
	mon.Tick(time.Now()) // baseline

	sub, err := b.Subscribe("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const n = 200
	for i := 0; i < n; i++ {
		if err := b.Publish(ctx, jms.NewMessage("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The sojourn of the last message lands just after its delivery; give
	// the tracer a moment before closing the window.
	deadline := time.Now().Add(5 * time.Second)
	for b.Telemetry()["a"].ServiceMoments.N < n {
		if time.Now().After(deadline) {
			t.Fatal("tracing never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	mon.Tick(time.Now())

	est, ok := mon.Estimates()["a"]
	if !ok {
		t.Fatal("no estimate for topic a")
	}
	if est.Messages != n || est.Lambda <= 0 || est.ObservedEW < 0 {
		t.Errorf("estimate = %+v", est)
	}
	if !est.Valid {
		t.Errorf("estimate invalid: %q", est.Reason)
	}

	var buf strings.Builder
	WriteMetrics(&buf, Options{Broker: b, Drift: mon})
	body := buf.String()
	for _, g := range mon.GaugeVecs() {
		if !strings.Contains(body, g.Name+`{topic="a"} `) {
			t.Errorf("exposition missing gauge %s", g.Name)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "jms_model_") &&
			(strings.Contains(line, "NaN") || strings.Contains(line, "Inf")) {
			t.Errorf("drift gauge not finite: %q", line)
		}
	}

	// An idle window must keep the previous estimate instead of zeroing it.
	mon.Tick(time.Now().Add(time.Second))
	if est2 := mon.Estimates()["a"]; est2.Messages != n {
		t.Errorf("idle tick rewrote the estimate: %+v", est2)
	}
}

// TestMonitorStartStop covers the loop lifecycle, including Stop without
// Start.
func TestMonitorStartStop(t *testing.T) {
	b := broker.New(broker.Options{WaitTiming: true})
	defer func() { _ = b.Close() }()

	m := NewMonitor(b, 10*time.Millisecond)
	m.Start()
	m.Start() // idempotent
	time.Sleep(30 * time.Millisecond)
	m.Stop()
	m.Stop() // idempotent

	m2 := NewMonitor(b, time.Second)
	m2.Stop() // never started: must not hang
}

// TestMonitorRhoFastEngine: on a fast broker with several dispatch workers
// the published utilization is the one the M^X/G/1 prediction beside it
// uses, rho = lambda * E[B], not a per-worker share of it.
func TestMonitorRhoFastEngine(t *testing.T) {
	b := broker.New(broker.Options{Engine: broker.EngineFast, Shards: 4, WaitTiming: true, InFlight: 256, SubscriberBuffer: 256})
	if err := b.ConfigureTopic("a"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	mon := NewMonitor(b, time.Second)
	mon.Tick(time.Now()) // baseline
	sub, err := b.Subscribe("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const n = 200
	for i := 0; i < n; i++ {
		if err := b.Publish(ctx, jms.NewMessage("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Telemetry()["a"].ServiceMoments.N < n {
		if time.Now().After(deadline) {
			t.Fatal("tracing never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	mon.Tick(time.Now())
	e := mon.Estimates()["a"]
	if e.Messages != n || e.EB <= 0 {
		t.Fatalf("estimate = %+v", e)
	}
	if e.Rho != e.Lambda*e.EB {
		t.Errorf("Rho = %g, want Lambda*EB = %g", e.Rho, e.Lambda*e.EB)
	}
}
