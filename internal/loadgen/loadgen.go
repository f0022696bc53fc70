// Package loadgen is the open-loop Poisson load generator every live check
// of the paper's M/GI/1 analysis is driven by: cmd/jmsload's -rate mode,
// the conformance legs and internal/bench's X3 waiting-time experiment.
//
// Arrivals are released at absolute deadlines drawn from a seeded
// exponential schedule, so a late wake-up displaces one arrival instead of
// accumulating as drift, and independently displaced Poisson points stay
// Poisson. A fixed pool of lanes drains a deep due-queue, so a slow send
// delays only its own arrival, never the schedule. Each arrival is handed
// to the caller with its due time: a caller that times from it charges a
// pacer or send stall to the messages it delayed (no coordinated omission).
// The generator checks itself the way the repository benchmark does: the
// Result says whether the schedule was kept.
//
// It is lifted from the paced phase of benchmark/loadgen.go, which keeps
// its own copy because the benchmark module is not edited outside a
// benchmark change.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

const (
	// lanes bounds the sends outstanding at once. It has to cover the rate
	// times the slowest send with room for Poisson bursts, or the pool
	// reshapes the arrival process it is meant to deliver; 256 is the
	// benchmark's paced-phase pool.
	lanes = 256
	// queueDepth bounds the arrivals due but not yet taken by a lane. It is
	// far deeper than the pool so the pacer never waits on busy lanes: the
	// loop stays open and a backlog shows as the caller's latency.
	queueDepth = 1 << 16
	// maxSleep caps one sleep of the pacer, so a cancelled run stops within
	// that even at a low rate.
	maxSleep = 10 * time.Millisecond
)

// Result is the generator's account of one run.
type Result struct {
	// Issued counts send calls.
	Issued int
	// Elapsed is the wall time from the schedule's start until the last send
	// returned.
	Elapsed time.Duration
	// LagP99 is the 99th percentile of how late the pacer handed an arrival
	// to the lanes, past its due time.
	LagP99 time.Duration
	// Achieved is the schedule's span over the time the pacer took to
	// release it: 1 when it kept the schedule, lower when it fell behind.
	Achieved float64
}

// Valid is the benchmark's self-check: the arrivals were released within
// a millisecond of their due times (p99) and the schedule was kept to 1 %.
// Latencies measured in an invalid run were shaped by the generator, not
// by the offered rate.
func (r Result) Valid() bool {
	return r.LagP99 <= time.Millisecond && r.Achieved >= 0.99
}

// arrival is one scheduled send.
type arrival struct {
	i   int
	due time.Time
}

// Run offers n arrivals at rate per second, gaps drawn from rng, calling
// send(ctx, i, due) for arrival i = 0, 1, … on one of the lanes; n <= 0
// runs until ctx ends. The first send error stops the schedule, cancels
// the ctx the other sends were handed, and is returned; arrivals still
// queued then are not sent. Run returns once every send has returned.
// A bounded schedule cut short by ctx returns ctx's error. The lag
// quantile keeps 4 bytes per arrival, so an unbounded run's memory grows
// with its length.
func Run(ctx context.Context, rng *stats.RNG, rate float64, n int, send func(ctx context.Context, i int, due time.Time) error) (Result, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return Result{}, fmt.Errorf("loadgen: rate %v", rate)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	depth := queueDepth
	if n > 0 {
		depth = min(n, queueDepth)
	}
	queue := make(chan arrival, depth)

	var (
		issued  atomic.Int64
		errOnce sync.Once
		sendErr error
		wg      sync.WaitGroup
	)
	start := time.Now()
	for range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				if runCtx.Err() != nil {
					continue // stopped: drain without sending
				}
				issued.Add(1)
				if err := send(runCtx, a.i, a.due); err != nil {
					errOnce.Do(func() {
						sendErr = err
						cancel()
					})
				}
			}
		}()
	}
	paced := make(chan pacing, 1)
	go func() {
		// The pacer owns the queue and closes it; it runs on its own
		// goroutine because it may lock its thread (see lockPacerThread).
		paced <- pace(runCtx, rng, rate, n, start, queue)
	}()
	p := <-paced
	wg.Wait()

	res := Result{Issued: int(issued.Load()), Elapsed: time.Since(start)}
	if len(p.lags) > 0 {
		sort.Slice(p.lags, func(i, j int) bool { return p.lags[i] < p.lags[j] })
		res.LagP99 = time.Duration(p.lags[len(p.lags)*99/100])
	}
	if p.took > 0 {
		res.Achieved = float64(p.span) / float64(p.took)
	}
	switch {
	case sendErr != nil:
		return res, sendErr
	case n > 0 && res.Issued < n:
		return res, ctx.Err()
	}
	return res, nil
}

// pacing is what the pacer measured: each released arrival's lag, the
// due offset of the last one and when it was actually released.
type pacing struct {
	lags       []uint32 // ns, capped at 2^32 ns (4.3 s)
	span, took time.Duration
}

// pace releases arrivals into queue at their due times until n are out or
// ctx ends, then closes queue.
func pace(ctx context.Context, rng *stats.RNG, rate float64, n int, start time.Time, queue chan<- arrival) (p pacing) {
	defer close(queue)
	lockPacerThread()
	if n > 0 {
		p.lags = make([]uint32, 0, n)
	}
	var at float64 // due offset, seconds
	for i := 0; n <= 0 || i < n; i++ {
		at += rng.Exp(rate)
		due := time.Duration(at * float64(time.Second))
		for now := time.Since(start); now < due; now = time.Since(start) {
			if ctx.Err() != nil {
				return p
			}
			sleep(min(due-now, maxSleep))
		}
		select {
		case queue <- arrival{i: i, due: start.Add(due)}:
		case <-ctx.Done():
			return p
		}
		// Read after the hand-off, so a full queue counts as lag.
		now := time.Since(start)
		p.lags = append(p.lags, uint32(min(now-due, math.MaxUint32)))
		p.span, p.took = due, now
	}
	return p
}
