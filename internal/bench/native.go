package bench

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/fit"
)

// NativeConfig parameterizes a native measurement run against this
// repository's real broker, following the paper's methodology: saturated
// publishers, a warm-up cut, a trimmed observation window, and counters at
// the publishers/subscribers.
type NativeConfig struct {
	// FilterType selects correlation-ID or application-property filters.
	// The zero value selects topic selection instead: every subscription
	// matches everything and the n non-matching ones sit on topics of
	// their own (the first mechanism of CompareMechanisms).
	FilterType core.FilterType
	// Publishers is the number of saturated publisher goroutines; the
	// paper found at least 5 are needed to load the server.
	Publishers int
	// Warmup is the initial interval excluded from measurement.
	Warmup time.Duration
	// Measure is the trimmed observation window.
	Measure time.Duration
	// NonMatchingIdentical makes all n non-matching filters identical
	// (all filtering for the same value) instead of pairwise different —
	// the Section III-B experiment that showed FioranoMQ gains nothing
	// from identical filters.
	NonMatchingIdentical bool
	// Repetitions repeats each scenario and keeps the median rates,
	// mirroring the paper's repeated runs. Default 1.
	Repetitions int
	// InFlight and SubscriberBuffer tune the broker. The defaults are
	// sized so that the dispatch loop — not a full subscriber queue — is
	// the bottleneck, as required by the E[B] = 1/throughput reading.
	InFlight, SubscriberBuffer int
	// Engine selects the broker dispatch implementation. The default
	// (EngineFaithful) is required for all paper reproductions; EngineFast
	// measures the optimized dispatch path instead.
	Engine broker.Engine
	// Shards is the fast engine's per-topic worker count (0 = default).
	Shards int
	// Batch coalesces the publish path: each publisher call sends Batch
	// cloned messages through Broker.PublishBatch as one arrival unit
	// (one in-flight slot per batch). 0 or 1 publishes per message.
	Batch int
	// StageTiming additionally records per-stage dispatch times on the
	// broker and reports measured t_rcv/t_fltr/t_tx per scenario (the
	// Stages field of NativeResult). The clock reads perturb absolute
	// throughput slightly, so leave it off for pure Table I runs.
	StageTiming bool
}

func (c NativeConfig) withDefaults() NativeConfig {
	if c.Publishers <= 0 {
		c.Publishers = 5
	}
	if c.Warmup <= 0 {
		c.Warmup = 50 * time.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 200 * time.Millisecond
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 1
	}
	if c.InFlight <= 0 {
		c.InFlight = 256
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 1 << 14
	}
	return c
}

// NativeResult is one measured data point.
type NativeResult struct {
	// NFltr is the total number of installed filters (n + R).
	NFltr int
	// R is the replication grade of the scenario.
	R int
	// ReceivedRate, DispatchedRate and OverallRate are msgs/s within the
	// trimmed window.
	ReceivedRate   float64
	DispatchedRate float64
	OverallRate    float64
	// MeanServiceTime is 1/ReceivedRate, the per-message processing time
	// at saturation.
	MeanServiceTime float64
	// Stages holds the per-stage Eq. 1 components measured inside the
	// dispatch pipeline during the same trimmed window; nil unless
	// NativeConfig.StageTiming was set.
	Stages *StageTimes
}

// StageTimes are the Eq. 1 cost components measured directly by the
// broker's per-stage instrumentation (seconds), the quantities Table I
// recovers indirectly from throughput:
//
//	TRcv  — mean receive-stage time per message,
//	TFltr — match-stage time per filter evaluation,
//	TTx   — replicate+transmit time per delivered replica.
type StageTimes struct {
	TRcv, TFltr, TTx float64
}

// ServiceTime composes the stage times into Eq. 1's E[B] for a scenario
// with nFltr installed filters and replication grade r.
func (st StageTimes) ServiceTime(nFltr int, r float64) float64 {
	return st.TRcv + float64(nFltr)*st.TFltr + r*st.TTx
}

// MeasureScenario runs one native measurement: n non-matching filters plus
// r matching subscribers (replication grade r), saturated publishers, and
// returns the trimmed-window rates. With Repetitions > 1 the scenario is
// repeated and the run with the median received rate is returned.
func MeasureScenario(cfg NativeConfig, n, r int) (NativeResult, error) {
	return measure(scenario{cfg: cfg, n: n, r: r})
}

// stageTimes normalizes the windowed per-stage histogram deltas d into Eq.
// 1 cost components over the counter deltas s of the same window: receive
// time per message, match time per filter evaluation, replicate+transmit
// time per delivered replica.
func stageTimes(d broker.StageStats, s broker.Stats) (StageTimes, error) {
	if !d.Enabled {
		return StageTimes{}, fmt.Errorf("%w: broker recorded no stage timings", ErrBench)
	}
	if d.Receive.Count == 0 {
		return StageTimes{}, fmt.Errorf("%w: no messages in stage-timing window", ErrBench)
	}
	const nsPerSec = 1e9
	st := StageTimes{
		TRcv: float64(d.Receive.Sum) / float64(d.Receive.Count) / nsPerSec,
	}
	if s.FilterEvals > 0 {
		st.TFltr = float64(d.Match.Sum) / float64(s.FilterEvals) / nsPerSec
	}
	if s.Dispatched > 0 {
		st.TTx = float64(d.Replicate.Sum+d.Transmit.Sum) / float64(s.Dispatched) / nsPerSec
	}
	return st, nil
}

// StudyGrid is the sweep of a native study.
type StudyGrid struct {
	// NValues are the counts of additional non-matching filters.
	NValues []int
	// RValues are the replication grades.
	RValues []int
}

// PaperGrid returns the paper's full grid.
func PaperGrid() StudyGrid {
	return StudyGrid{NValues: PaperNValues, RValues: PaperRValues}
}

// StudyResult is the outcome of a native parameter study.
type StudyResult struct {
	// Points are the measured data points.
	Points []NativeResult
	// Fit is the least-squares recovery of (t_rcv, t_fltr, t_tx) from the
	// points — this machine's Table I.
	Fit fit.Result
}

// RunNativeStudy sweeps the grid against the real broker and fits the cost
// model, reproducing the paper's Table I derivation on local hardware.
func RunNativeStudy(cfg NativeConfig, grid StudyGrid) (StudyResult, error) {
	if len(grid.NValues) == 0 || len(grid.RValues) == 0 {
		return StudyResult{}, fmt.Errorf("%w: empty grid", ErrBench)
	}
	var res StudyResult
	var obs []fit.Observation
	for _, n := range grid.NValues {
		for _, r := range grid.RValues {
			p, err := MeasureScenario(cfg, n, r)
			if err != nil {
				return StudyResult{}, fmt.Errorf("scenario n=%d r=%d: %w", n, r, err)
			}
			res.Points = append(res.Points, p)
			obs = append(obs, fit.Observation{NFltr: p.NFltr, R: float64(p.R), ServiceTime: p.MeanServiceTime})
		}
	}
	f, err := fit.Fit(obs)
	if err != nil {
		return StudyResult{}, err
	}
	res.Fit = f
	return res, nil
}

// Table1Series renders a study result as the repository's version of
// Table I next to the paper's constants.
func Table1Series(res StudyResult, ft core.FilterType) (Series, error) {
	paper, err := core.TableI(ft)
	if err != nil {
		return Series{}, err
	}
	return Series{
		Name: fmt.Sprintf("Table I (%v): native fit vs paper", ft),
		Cols: []string{"t_rcv_s", "t_fltr_s", "t_tx_s", "R2"},
		Rows: [][]float64{
			{res.Fit.Model.TRcv, res.Fit.Model.TFltr, res.Fit.Model.TTx, res.Fit.R2},
			{paper.TRcv, paper.TFltr, paper.TTx, 1},
		},
	}, nil
}

// Fig4Native renders measured native points in Fig. 4's format: one series
// per replication grade with measured overall throughput and this fit's
// model prediction.
func Fig4Native(res StudyResult) ([]Series, error) {
	var out []Series
	at := make(map[int]int) // replication grade → index in out
	for _, p := range res.Points {
		i, ok := at[p.R]
		if !ok {
			i, at[p.R] = len(out), len(out)
			out = append(out, Series{
				Name: fmt.Sprintf("Fig4(native) R=%d", p.R),
				Cols: []string{"n_fltr", "measured_overall_msgs_per_s", "fit_model_overall_msgs_per_s"},
			})
		}
		_, _, modelOverall := res.Fit.Model.Throughput(p.NFltr, float64(p.R))
		out[i].Rows = append(out[i].Rows, []float64{float64(p.NFltr), p.OverallRate, modelOverall})
	}
	return out, nil
}
