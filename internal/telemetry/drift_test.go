package telemetry

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
	"repro/internal/stats"
)

// tapeEpoch is the synthetic tapes' first enqueue.
var tapeEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

// at converts a synthetic clock reading in seconds to a tape stamp.
func at(sec float64) time.Time {
	return tapeEpoch.Add(time.Duration(sec * float64(time.Second)))
}

// synthWindow builds one worker's tape from an exact M/D/1 sample path:
// Poisson arrivals at rate lambda, deterministic service b, waiting times
// from the Lindley recursion W_{k+1} = max(0, W_k + B - A_{k+1}). It
// returns the tape and its wall-clock span.
func synthWindow(seed int64, lambda float64, b time.Duration, n int) ([]broker.TapeEntry, time.Duration) {
	rng := stats.NewRNG(seed)
	bs := b.Seconds()
	tape := make([]broker.TapeEntry, n)
	var wait, clock float64
	for i := range tape {
		a := rng.Exp(lambda)
		clock += a
		if i > 0 {
			wait = math.Max(0, wait+bs-a)
		}
		start := at(clock + wait)
		tape[i] = broker.TapeEntry{Enqueued: at(clock), Start: start, End: start.Add(b)}
	}
	return tape, time.Duration(clock * float64(time.Second))
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
	tape, window := synthWindow(1, lambda, b, n)
	e := Compute("t", tape, 0, n, window, MonitoredQuantile, DefaultMinSamples)
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
	// The observed q99 is the exact sample quantile of the tape's waits,
	// so it must meet the Gamma approximation (Eqs. 19–20) within 15%.
	if e.PredictedQ <= 0 || e.ObservedQ <= 0 {
		t.Fatalf("quantiles: predicted %v observed %v", e.PredictedQ, e.ObservedQ)
	}
	if rel := math.Abs(e.ObservedQ-e.PredictedQ) / e.PredictedQ; rel > 0.15 {
		t.Errorf("q99 disagrees by %.1f%%: predicted %v observed %v",
			100*rel, e.PredictedQ, e.ObservedQ)
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
	// A batch's members share one Enqueued stamp and start back to back,
	// each where the one before it ended: the broker's tape of a batch.
	rng := stats.NewRNG(5)
	bs := b.Seconds()
	tape := make([]broker.TapeEntry, 0, units*k)
	var wb, clock float64
	for i := 0; i < units; i++ {
		if i > 0 {
			a := rng.Exp(lambdaB)
			clock += a
			wb = math.Max(0, wb-a)
		}
		for j := 0; j < k; j++ {
			start := at(clock + wb + float64(j)*bs)
			tape = append(tape, broker.TapeEntry{Enqueued: at(clock), Start: start, End: start.Add(b)})
		}
		wb += k * bs
	}
	window := time.Duration(clock * float64(time.Second))

	e := Compute("t", tape, 0, units*k, window, MonitoredQuantile, DefaultMinSamples)
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
	if rel := math.Abs(e.ObservedQ-e.PredictedQ) / e.PredictedQ; rel > 0.15 {
		t.Errorf("q99 disagrees by %.1f%%: predicted %v observed %v",
			100*rel, e.PredictedQ, e.ObservedQ)
	}
}

// TestComputeDetectsDrift: waits measured from a slower reality than the
// moments fed to the model must push the drift ratio above 1.
func TestComputeDetectsDrift(t *testing.T) {
	tape, window := synthWindow(2, 500, time.Millisecond, 100000)
	// Inflate the observed waits 3x while leaving the service times alone
	// — reality got slower than the model believes.
	for i, en := range tape {
		shift := 2 * en.Start.Sub(en.Enqueued)
		tape[i].Start, tape[i].End = en.Start.Add(shift), en.End.Add(shift)
	}
	e := Compute("t", tape, 0, uint64(len(tape)), window, MonitoredQuantile, DefaultMinSamples)
	if !e.Valid {
		t.Fatalf("estimate invalid: %q", e.Reason)
	}
	if e.DriftRatio < 2 {
		t.Errorf("drift ratio = %v, want ~3", e.DriftRatio)
	}
}

func TestComputeInvalidWindows(t *testing.T) {
	tape, window := synthWindow(3, 500, time.Millisecond, 1000)
	n := uint64(len(tape))

	if e := Compute("t", tape, 0, n, 0, MonitoredQuantile, DefaultMinSamples); e.Valid || e.Reason != "empty window" {
		t.Errorf("zero window: %+v", e)
	}
	if e := Compute("t", nil, 0, n, window, MonitoredQuantile, DefaultMinSamples); e.Valid || e.Reason != "too few samples" {
		t.Errorf("empty tape: %+v", e)
	}
	if e := Compute("t", tape, 0, n, window, MonitoredQuantile, 5000); e.Valid || e.Reason != "too few samples" {
		t.Errorf("small window: %+v", e)
	}
	// Observed values are still reported on an invalid estimate.
	if e := Compute("t", tape, 0, n, window, MonitoredQuantile, 5000); e.ObservedEW <= 0 {
		t.Errorf("invalid estimate lost observed wait: %+v", e)
	}

	// An overloaded window (rho >= 1) cannot produce a finite prediction.
	overload, span := synthWindow(4, 2000, time.Millisecond, 1000)
	if e := Compute("t", overload, 0, uint64(len(overload)), span, MonitoredQuantile, DefaultMinSamples); e.Valid {
		t.Errorf("overloaded window produced a prediction: %+v", e)
	} else if e.Reason == "" {
		t.Error("overloaded window has no reason")
	}
}

// TestComputeOverwrittenWindow: when the ring overwrote part of a window,
// the estimate reads its statistics off the entries held, λ off the
// arrival count, and counts the lost entries in Messages.
func TestComputeOverwrittenWindow(t *testing.T) {
	tape, window := synthWindow(6, 500, time.Millisecond, 4000)
	held := tape[1000:]
	e := Compute("t", held, 1000, uint64(len(tape)), window, MonitoredQuantile, DefaultMinSamples)
	if !e.Valid {
		t.Fatalf("estimate invalid: %q", e.Reason)
	}
	if e.Messages != uint64(len(tape)) {
		t.Errorf("Messages = %d, want %d held + overwritten", e.Messages, len(tape))
	}
	if want := float64(len(tape)) / window.Seconds(); e.Lambda != want {
		t.Errorf("Lambda = %v, want %v", e.Lambda, want)
	}
	if math.Abs(e.EB-time.Millisecond.Seconds()) > 1e-12 || math.Abs(e.Rho-e.Lambda*1e-3) > 1e-9 {
		t.Errorf("EB = %v, Rho = %v, want 1 ms and Lambda * 1 ms", e.EB, e.Rho)
	}
	var sum time.Duration
	for _, en := range held {
		sum += en.Start.Sub(en.Enqueued)
	}
	if want := sum.Seconds() / float64(len(held)); math.Abs(e.ObservedEW-want) > 1e-12 {
		t.Errorf("ObservedEW = %v, want the held entries' mean %v", e.ObservedEW, want)
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
	for b.Telemetry()["a"].Sojourn.Count < n {
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
	for b.Telemetry()["a"].Sojourn.Count < n {
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
