package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// WaitingResult is the outcome of a native waiting-time experiment: the
// broker's observed waits under Poisson load, next to the M/D/1 reference
// computed from the broker's own measured service time.
type WaitingResult struct {
	// MeanServiceTime is the saturation-measured E[B] of the scenario.
	MeanServiceTime float64
	// OfferedRho is the target utilization of the Poisson run.
	OfferedRho float64
	// Waits are the observed waiting times in seconds.
	Waits *stats.Summary
	// PredictedMeanWait is the M/D/1 Pollaczek–Khinchine mean
	// rho*E[B]/(2(1-rho)) using the measured E[B] (the native broker's
	// service time is nearly deterministic for fixed n_fltr and R).
	PredictedMeanWait float64
	// Pacing is the load generator's self-check. Pacing.Achieved is the
	// Poisson schedule's span over the time the generator took to release
	// it; well below 1 means the pacer was starved (noisy machine) and the
	// observed waits are not comparable to the analysis.
	Pacing loadgen.Result
}

// MeasureNativeWaiting runs the X3 experiment: calibrate E[B] by a
// saturated run, then offer Poisson traffic at utilization rho and record
// each message's waiting time via the broker's WaitObserver.
func MeasureNativeWaiting(cfg NativeConfig, n, r int, rho float64, messages int) (WaitingResult, error) {
	cfg = cfg.withDefaults()
	if rho <= 0 || rho >= 1 {
		return WaitingResult{}, fmt.Errorf("%w: rho=%g", ErrBench, rho)
	}
	if messages < 100 {
		return WaitingResult{}, fmt.Errorf("%w: messages=%d", ErrBench, messages)
	}

	// Phase 1: saturated calibration of E[B].
	sat, err := MeasureScenario(cfg, n, r)
	if err != nil {
		return WaitingResult{}, err
	}
	meanB := sat.MeanServiceTime
	lambda := rho / meanB

	// Phase 2: Poisson offered load at rate lambda with wait recording.
	waits := stats.NewSummary()
	var waitsMu sync.Mutex
	b := broker.New(broker.Options{
		InFlight:         cfg.InFlight,
		SubscriberBuffer: cfg.SubscriberBuffer,
		WaitObserver: func(w time.Duration) {
			waitsMu.Lock()
			waits.Add(w.Seconds())
			waitsMu.Unlock()
		},
	})
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic("bench"); err != nil {
		return WaitingResult{}, err
	}
	var drainWG sync.WaitGroup
	subscribeAll := func(build func(i int) (filter.Filter, error)) error {
		for i := 0; i < n+r; i++ {
			f, err := build(i)
			if err != nil {
				return err
			}
			s, err := b.Subscribe("bench", f)
			if err != nil {
				return err
			}
			drainWG.Add(1)
			go func() {
				defer drainWG.Done()
				for range s.Chan() {
				}
			}()
		}
		return nil
	}
	if err := subscribeAll(func(i int) (filter.Filter, error) {
		if i < r {
			return matchingFilter(cfg.FilterType)
		}
		return nonMatchingFilter(cfg.FilterType, i-r, cfg.NonMatchingIdentical)
	}); err != nil {
		return WaitingResult{}, err
	}

	template, err := benchMessage(cfg.FilterType, "bench")
	if err != nil {
		return WaitingResult{}, err
	}
	pacing, err := loadgen.Run(context.Background(), stats.NewRNG(42), lambda, messages, func(ctx context.Context, _ int, _ time.Time) error {
		return b.Publish(ctx, template.Clone())
	})
	if err != nil {
		return WaitingResult{}, err
	}
	// Let the dispatcher drain before closing.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		waitsMu.Lock()
		n := waits.N()
		waitsMu.Unlock()
		if n >= messages {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.Close(); err != nil {
		return WaitingResult{}, err
	}
	drainWG.Wait()

	return WaitingResult{
		MeanServiceTime:   meanB,
		OfferedRho:        rho,
		Waits:             waits,
		PredictedMeanWait: rho * meanB / (2 * (1 - rho)),
		Pacing:            pacing,
	}, nil
}
