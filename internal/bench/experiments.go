package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// MechanismResult compares the three message selection mechanisms of the
// paper for the same logical workload: topic selection (subscribers are
// pre-partitioned onto topics, the server does no per-message filter
// work), correlation-ID filtering and application-property filtering.
// §III-B: "the message throughput suffers the least from topic filtering,
// followed by correlation ID filtering and application property
// filtering".
type MechanismResult struct {
	// TopicRate, CorrIDRate and AppPropRate are received msgs/s at
	// saturation for the same workload (1 interested subscriber among
	// n+1, R=1).
	TopicRate   float64
	CorrIDRate  float64
	AppPropRate float64
}

// CompareMechanisms measures the three mechanisms natively. n is the
// number of uninterested subscribers.
func CompareMechanisms(cfg NativeConfig, n int) (MechanismResult, error) {
	if n < 0 {
		return MechanismResult{}, fmt.Errorf("%w: n=%d", ErrBench, n)
	}
	var res MechanismResult
	for _, m := range []struct {
		name string
		ft   core.FilterType
		rate *float64
	}{
		{"topic selection", topicSelection, &res.TopicRate},
		{"correlation ID", core.CorrelationIDFiltering, &res.CorrIDRate},
		{"application property", core.ApplicationPropertyFiltering, &res.AppPropRate},
	} {
		cfg.FilterType = m.ft
		p, err := MeasureScenario(cfg, n, 1)
		if err != nil {
			return MechanismResult{}, fmt.Errorf("%s: %w", m.name, err)
		}
		*m.rate = p.ReceivedRate
	}
	return res, nil
}

// BodySizePoint is one measured (body size, throughput) pair.
type BodySizePoint struct {
	BodyBytes    int
	ReceivedRate float64
}

// MeasureBodySizeImpact reproduces the §III-B observation that "the
// message size has a significant impact on the message throughput": it
// saturates the broker with two match-all subscribers — so every dispatch
// copies the body — and varying body sizes.
func MeasureBodySizeImpact(cfg NativeConfig, sizes []int) ([]BodySizePoint, error) {
	if len(sizes) == 0 {
		sizes = []int{0, 1 << 10, 16 << 10, 128 << 10}
	}
	cfg.FilterType = topicSelection
	points := make([]BodySizePoint, 0, len(sizes))
	for _, size := range sizes {
		if size < 0 {
			return nil, fmt.Errorf("%w: body size %d", ErrBench, size)
		}
		p, err := measure(scenario{cfg: cfg, r: 2, body: size})
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", size, err)
		}
		points = append(points, BodySizePoint{BodyBytes: size, ReceivedRate: p.ReceivedRate})
	}
	return points, nil
}

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
// saturated run, then offer Poisson traffic at utilization rho to the same
// configuration and read each message's waiting time (dispatch start −
// enqueue) off the broker's WaitTiming tape. Beyond broker.TapeCapacity
// messages only the last TapeCapacity waits are kept.
func MeasureNativeWaiting(cfg NativeConfig, n, r int, rho float64, messages int) (WaitingResult, error) {
	if rho <= 0 || rho >= 1 {
		return WaitingResult{}, fmt.Errorf("%w: rho=%g", ErrBench, rho)
	}
	if messages < 100 {
		return WaitingResult{}, fmt.Errorf("%w: messages=%d", ErrBench, messages)
	}
	sat, err := MeasureScenario(cfg, n, r)
	if err != nil {
		return WaitingResult{}, err
	}
	meanB := sat.MeanServiceTime
	ph, err := run(scenario{cfg: cfg, n: n, r: r, rate: rho / meanB, messages: messages})
	if err != nil {
		return WaitingResult{}, err
	}
	waits := stats.NewSummary()
	for _, e := range ph.tape {
		waits.Add(e.Start.Sub(e.Enqueued).Seconds())
	}
	return WaitingResult{
		MeanServiceTime:   meanB,
		OfferedRho:        rho,
		Waits:             waits,
		PredictedMeanWait: rho * meanB / (2 * (1 - rho)),
		Pacing:            ph.Pacing,
	}, nil
}
