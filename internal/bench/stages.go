package bench

import (
	"fmt"

	"repro/internal/fit"
)

// This file turns the broker's per-stage instrumentation into the paper's
// quantities: each measured scenario carries directly observed
// t_rcv/t_fltr/t_tx components (NativeResult.Stages), which can be
// aggregated, re-fitted through Eq. 1, and laid next to the throughput fit
// that produced Table I. Agreement between the two closes the loop: the
// constants the paper recovered offline from saturated-throughput sweeps
// are the same numbers the pipeline measures stage by stage at runtime.

// staged returns the study's points that carry stage timings; it fails
// unless the study ran with NativeConfig.StageTiming.
func staged(res StudyResult) ([]NativeResult, error) {
	var pts []NativeResult
	for _, p := range res.Points {
		if p.Stages != nil {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%w: study carries no stage timings (set NativeConfig.StageTiming)", ErrBench)
	}
	return pts, nil
}

// StageSummary averages the per-scenario stage times of a study into one
// set of Eq. 1 constants.
func StageSummary(res StudyResult) (StageTimes, error) {
	pts, err := staged(res)
	if err != nil {
		return StageTimes{}, err
	}
	var sum StageTimes
	for _, p := range pts {
		sum.TRcv += p.Stages.TRcv
		sum.TFltr += p.Stages.TFltr
		sum.TTx += p.Stages.TTx
	}
	n := float64(len(pts))
	return StageTimes{TRcv: sum.TRcv / n, TFltr: sum.TFltr / n, TTx: sum.TTx / n}, nil
}

// StageFit re-fits Eq. 1 on service times composed from the per-stage
// measurements (fit.FromStages) instead of from throughput reciprocals.
// If the stage instrumentation is faithful, the recovered constants
// reproduce the throughput fit.
func StageFit(res StudyResult) (fit.Result, error) {
	pts, err := staged(res)
	if err != nil {
		return fit.Result{}, err
	}
	obs := make([]fit.Observation, 0, len(pts))
	for _, p := range pts {
		o, err := fit.FromStages(p.NFltr, float64(p.R), p.Stages.TRcv, p.Stages.TFltr, p.Stages.TTx)
		if err != nil {
			return fit.Result{}, err
		}
		obs = append(obs, o)
	}
	return fit.Fit(obs)
}

// StageSeries renders the per-scenario stage measurements: each point's
// measured components, the service time they compose to (Eq. 1), and the
// externally measured service time (1/throughput) it should explain.
func StageSeries(res StudyResult) (Series, error) {
	pts, err := staged(res)
	if err != nil {
		return Series{}, err
	}
	s := Series{
		Name: "Per-stage timing: measured Eq. 1 components",
		Cols: []string{"n_fltr", "R", "t_rcv_us", "t_fltr_us", "t_tx_us", "staged_EB_us", "meas_EB_us"},
	}
	for _, p := range pts {
		eb := p.Stages.ServiceTime(p.NFltr, float64(p.R))
		s.Rows = append(s.Rows, []float64{float64(p.NFltr), float64(p.R),
			p.Stages.TRcv * 1e6, p.Stages.TFltr * 1e6, p.Stages.TTx * 1e6, eb * 1e6, p.MeanServiceTime * 1e6})
	}
	return s, nil
}
