package conformance

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/broker"
	"repro/internal/mg1"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A live leg is judged by the tape it was served on. Each broker.TapeEntry
// records one message's enqueue, dispatch start and last transmit, so the
// entries of one dispatch worker are a complete sample path of a single
// server: arrivals
// A_n = Enqueued, services B_n = End − Start, recorded waits Start −
// Enqueued. On such a path the queueing side of the paper is arithmetic.
// CheckTape asserts the path is one work-conserving FIFO server's, and
// AnalyzeTape compares the waits three ways: as recorded, replayed through
// the Lindley recursion, and predicted by Pollaczek–Khinchine and the
// Eq. 20 Gamma quantile from the tape's own arrival rate and service
// moments.

// TapeReport is one server's tape read three ways.
type TapeReport struct {
	// Tape is the sample path the report was computed from, warm-up
	// included; every statistic below covers the entries after it.
	Tape []broker.TapeEntry
	// Recorded is the broker's own waits, Lindley the waits sim.Replay
	// gives the same arrivals and services, and Predicted the M/G/1 point
	// at the tape's λ̂ and E[B^k] — NaN when ρ̂ ≥ 1, where the queue has
	// no stationary wait.
	Recorded, Lindley, Predicted Point
	// Gap is the mean of recorded minus Lindley wait: the dispatch floor
	// (channel hand-off, goroutine wake-up) that a replay of the same path
	// does not pay and the queueing model does not describe. CheckTape
	// makes it non-negative entry by entry.
	Gap float64
	// MeanService is the tape's E[B], Lambda its arrival rate λ̂ (from the
	// enqueue stamps) and Rho = λ̂·E[B].
	MeanService, Lambda, Rho float64
}

// samplePath converts a tape to the recursion's input: arrival offsets
// from the first enqueue and services, in seconds.
func samplePath(tape []broker.TapeEntry) (arrivals, services []float64) {
	arrivals = make([]float64, len(tape))
	services = make([]float64, len(tape))
	for i, e := range tape {
		arrivals[i] = e.Enqueued.Sub(tape[0].Enqueued).Seconds()
		services[i] = e.End.Sub(e.Start).Seconds()
	}
	return arrivals, services
}

// CheckTape asserts the work-conservation identity of a single FIFO
// server on each dispatch worker's entries of a tape in commit order:
// each message starts no earlier than its own enqueue and its
// predecessor's last transmit on the same worker, Start_n ≥
// max(Enqueued_n, End_{n−1}), and ends no earlier than it starts. By
// induction these give recorded W_n ≥ Lindley W_n for every entry, which
// is checked too, to the tape's nanosecond resolution. Every comparison is
// between stamps on the tape; no clock is read.
func CheckTape(tape []broker.TapeEntry) error {
	byWorker := make(map[int][]broker.TapeEntry)
	for _, e := range tape {
		byWorker[e.Worker] = append(byWorker[e.Worker], e)
	}
	for w, entries := range byWorker {
		if err := checkServer(entries); err != nil {
			return fmt.Errorf("worker %d: %w", w, err)
		}
	}
	return nil
}

// checkServer is CheckTape on one worker's entries.
func checkServer(tape []broker.TapeEntry) error {
	for i, e := range tape {
		if e.Start.Before(e.Enqueued) || e.End.Before(e.Start) {
			return fmt.Errorf("conformance: tape entry %d out of order: enqueued %v, start %v, end %v",
				i, e.Enqueued, e.Start, e.End)
		}
		if i > 0 && e.Start.Before(tape[i-1].End) {
			return fmt.Errorf("conformance: tape entry %d starts %v before entry %d ends: two services overlap",
				i, tape[i-1].End.Sub(e.Start), i-1)
		}
	}
	arrivals, services := samplePath(tape)
	lindley, err := sim.Replay(arrivals, services)
	if err != nil {
		return err
	}
	for i, e := range tape {
		if w := e.Start.Sub(e.Enqueued).Seconds(); w < lindley[i]-1e-9 {
			return fmt.Errorf("conformance: tape entry %d waited %gs, less than its Lindley wait %gs", i, w, lindley[i])
		}
	}
	return nil
}

// AnalyzeTape computes a TapeReport over the entries after the first
// warmup, at the given tail quantile. The replay runs from the tape's
// first entry, so the warm-up entries set the queue state the reported
// ones start from: a tape that begins with an idle server is replayed
// exactly. At least two entries must remain, and all must be one dispatch
// worker's: a tape that mixes workers is several servers' paths.
func AnalyzeTape(tape []broker.TapeEntry, warmup int, quantile float64) (TapeReport, error) {
	if warmup < 0 || len(tape)-warmup < 2 {
		return TapeReport{}, fmt.Errorf("conformance: tape of %d entries, %d of them warm-up", len(tape), warmup)
	}
	for i, e := range tape {
		if e.Worker != tape[0].Worker {
			return TapeReport{}, fmt.Errorf("conformance: tape mixes workers %d and %d (entry %d)", tape[0].Worker, e.Worker, i)
		}
	}
	arrivals, services := samplePath(tape)
	lindley, err := sim.Replay(arrivals, services)
	if err != nil {
		return TapeReport{}, err
	}
	recorded, replayed := stats.NewSummary(), stats.NewSummary()
	var gap float64
	for i, e := range tape[warmup:] {
		w, l := e.Start.Sub(e.Enqueued).Seconds(), lindley[warmup+i]
		recorded.Add(w)
		replayed.Add(l)
		gap += w - l
	}
	var b mg1.ServiceMoments
	b.M1, b.M2, b.M3 = broker.ServiceMoments(tape[warmup:])
	n := float64(len(tape) - warmup)
	span := arrivals[len(arrivals)-1] - arrivals[warmup]
	if span <= 0 {
		return TapeReport{}, fmt.Errorf("conformance: tape spans %v of arrivals", time.Duration(span*1e9))
	}
	rep := TapeReport{
		Tape:        tape,
		Predicted:   Point{MeanWait: math.NaN(), Quantile: math.NaN()},
		Gap:         gap / n,
		MeanService: b.M1,
		Lambda:      (n - 1) / span,
	}
	rep.Rho = rep.Lambda * b.M1
	q, err := mg1.NewQueue(rep.Lambda, b)
	switch {
	case errors.Is(err, mg1.ErrUnstable):
	case err != nil:
		return TapeReport{}, fmt.Errorf("conformance: tape queue: %w", err)
	default:
		if rep.Predicted, err = queuePoint(q, quantile); err != nil {
			return TapeReport{}, err
		}
	}
	if rep.Recorded, err = point(recorded, quantile); err != nil {
		return TapeReport{}, err
	}
	rep.Lindley, err = point(replayed, quantile)
	return rep, err
}

// queuePoint is the M/G/1 point of q: Pollaczek–Khinchine for E[W] and
// the Gamma approximation (Eqs. 19–20) for the quantile.
func queuePoint(q mg1.Queue, quantile float64) (Point, error) {
	dist, err := q.GammaApprox()
	if err != nil {
		return Point{}, err
	}
	qt, err := dist.Quantile(quantile)
	return Point{MeanWait: q.MeanWait(), Quantile: qt}, err
}

// point reads the mean and a quantile off a summary.
func point(s *stats.Summary, quantile float64) (Point, error) {
	mean, err := s.Mean()
	if err != nil {
		return Point{}, err
	}
	q, err := s.Quantile(quantile)
	return Point{MeanWait: mean, Quantile: q}, err
}
