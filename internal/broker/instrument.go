package broker

import "repro/internal/metrics"

// This file is the pipeline's per-stage instrumentation: one lock-cheap
// histogram per dispatch stage, shared by all topics of a broker. With
// Options.StageTiming enabled, every message contributes its per-stage
// times, making the Eq. 1 terms first-class measured quantities on the
// running system — the role the Linux tool "sar" plus offline fitting
// played in the authors' testbed:
//
//	t_rcv  ≈ Receive.Mean()
//	t_fltr ≈ Match.Sum / FilterEvals   (time per filter evaluation; under
//	                                    the fast engine an evaluation is a
//	                                    bucket probe or a rule looked at, see
//	                                    Stats.FilterEvals)
//	t_tx   ≈ (Replicate.Sum + Transmit.Sum) / Dispatched
//
// internal/bench turns windowed snapshots of these histograms into live
// fit.Observation-style stage estimates (jmsbench -stages).

// stageTimers holds the per-stage histograms of one broker.
type stageTimers struct {
	receive   metrics.Histogram
	match     metrics.Histogram
	replicate metrics.Histogram
	transmit  metrics.Histogram
}

// StageStats is a snapshot of the per-stage dispatch timings.
type StageStats struct {
	// Enabled reports whether Options.StageTiming was set; all snapshots
	// are zero when it was not.
	Enabled bool
	// Receive is timed once per message as the residual of the full
	// per-message loop iteration after the other stages' time is
	// subtracted: dequeue bookkeeping, waiting-time observation,
	// expiration check, counters — every fixed per-message cost, which is
	// what the paper's throughput-derived t_rcv measures (Eq. 1's t_rcv).
	Receive metrics.HistogramSnapshot
	// Match is timed once per non-expired message: the whole filter-scan
	// or index probe (Eq. 1's n_fltr·t_fltr; divide Sum by the filter
	// evaluations of the same window for t_fltr).
	Match metrics.HistogramSnapshot
	// Replicate is timed once per copy made (messages with a single
	// receiver forward the original without a copy).
	Replicate metrics.HistogramSnapshot
	// Transmit is timed once per delivered replica; together with
	// Replicate it forms Eq. 1's per-receiver t_tx.
	Transmit metrics.HistogramSnapshot
}

// Sub returns the windowed delta s - prev (see metrics.HistogramSnapshot.Sub).
func (s StageStats) Sub(prev StageStats) StageStats {
	return StageStats{
		Enabled:   s.Enabled,
		Receive:   s.Receive.Sub(prev.Receive),
		Match:     s.Match.Sub(prev.Match),
		Replicate: s.Replicate.Sub(prev.Replicate),
		Transmit:  s.Transmit.Sub(prev.Transmit),
	}
}

// StageStats returns a snapshot of the per-stage dispatch timings. Without
// Options.StageTiming the broker records nothing (the hot path stays free
// of clock reads) and the snapshot is zero with Enabled=false.
func (b *Broker) StageStats() StageStats {
	if b.timers == nil {
		return StageStats{}
	}
	return StageStats{
		Enabled:   true,
		Receive:   b.timers.receive.Snapshot(),
		Match:     b.timers.match.Snapshot(),
		Replicate: b.timers.replicate.Snapshot(),
		Transmit:  b.timers.transmit.Snapshot(),
	}
}
